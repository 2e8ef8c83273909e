package pmic

// Internals the external pmic_test files reach: they drive the codec
// through a firmware controller, which this package cannot import.
var (
	StatusToError = statusToError
	EncodeStatus  = encodeStatus
	DecodeStatus  = decodeStatus
)

// ClientSeq is a client's sequence counter.
func ClientSeq(c *Client) *byte { return &c.seq }
