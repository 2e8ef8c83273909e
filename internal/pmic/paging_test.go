package pmic

// Every list reply pages through the one fitter: whatever the list's
// size, each page fits a frame, each cursor advances, and the pages
// join to the whole list in order.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sdb/internal/bus"
	"sdb/internal/obs"
)

// listCase is one list reply: page builds the server's answer to the
// request at cursor over a list of n items, want is that list's items
// and read decodes a page's items after its cursor.
type listCase struct {
	name string
	max  int // the largest list the server allows
	page func(n int, cursor uint64) bus.Frame
	want func(n int) []string
	read func(r *bus.Reader) []string
}

func listCases() []listCase {
	regs := map[int]*obs.Registry{}
	registry := func(n int) *obs.Registry {
		if regs[n] == nil {
			reg := obs.NewRegistry()
			for i := 0; i < n; i++ {
				reg.Counter(fmt.Sprintf("sdb_page_%05d_total", i)).Add(int64(i))
			}
			regs[n] = reg
		}
		return regs[n]
	}
	names := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("sdb_series_%05d", i)
		}
		return out
	}
	ids := func(n int) []uint16 {
		out := make([]uint16, n)
		for i := range out {
			out[i] = uint16(i)
		}
		return out
	}
	subs := func(n int) []SubStat {
		out := make([]SubStat, n)
		for i := range out {
			out[i] = SubStat{ID: uint64(i + 1), Signals: SubSigMetrics, FleetWide: i%2 == 0,
				Devices: i % 5, Pushed: uint64(i) * 7, Dropped: uint64(i % 3)}
		}
		return out
	}
	return []listCase{{
		name: "metrics", max: 256,
		page: func(n int, cursor uint64) bus.Frame { return MetricsReply(bus.Frame{}, registry(n), cursor) },
		want: func(n int) []string {
			var out []string
			for _, f := range registry(n).Snapshot() {
				out = append(out, f.Text())
			}
			return out
		},
		read: func(r *bus.Reader) []string {
			chunk := r.Str()
			var out []string
			for len(chunk) > 0 {
				end := strings.Index(chunk[1:], "# TYPE ") + 1
				if end == 0 {
					end = len(chunk)
				}
				out = append(out, chunk[:end])
				chunk = chunk[end:]
			}
			return out
		},
	}, {
		name: "series", max: 4000,
		page: func(n int, cursor uint64) bus.Frame { return SeriesListReply(bus.Frame{}, names(n), cursor) },
		want: names,
		read: func(r *bus.Reader) (out []string) {
			for k := r.U16(); k > 0 && r.Err() == nil; k-- {
				out = append(out, r.Str())
			}
			return out
		},
	}, {
		name: "fleet-list", max: 1 << 16,
		page: func(n int, cursor uint64) bus.Frame {
			all := ids(n)
			i := sort.Search(n, func(i int) bool { return uint64(all[i]) >= cursor })
			return FleetListReply(bus.Frame{}, all[i:])
		},
		want: func(n int) []string { return strs(ids(n)) },
		read: func(r *bus.Reader) (out []string) {
			for k := r.U16(); k > 0 && r.Err() == nil; k-- {
				out = append(out, fmt.Sprint(r.U16()))
			}
			return out
		},
	}, {
		name: "fleet-subs", max: 4096,
		page: func(n int, cursor uint64) bus.Frame {
			all := subs(n)
			i := sort.Search(n, func(i int) bool { return all[i].ID >= cursor })
			return FleetSubsReply(bus.Frame{}, all[i:])
		},
		want: func(n int) []string { return strs(subs(n)) },
		read: func(r *bus.Reader) (out []string) {
			for k := r.U16(); k > 0 && r.Err() == nil; k-- {
				out = append(out, fmt.Sprint(SubStat{ID: r.UVarint(), Signals: r.U8(), FleetWide: r.U8() != 0,
					Devices: int(r.UVarint()), Pushed: r.UVarint(), Dropped: r.UVarint()}))
			}
			return out
		},
	}}
}

func listCaseNamed(name string) listCase {
	for _, lc := range listCases() {
		if lc.name == name {
			return lc
		}
	}
	panic("no list case " + name)
}

func strs[T any](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// walk pages through a list from cursor 0, checking every page, and
// returns the items in order and the page count.
func (lc listCase) walk(t *testing.T, page func(cursor uint64) bus.Frame) (items []string, pages int) {
	t.Helper()
	var cursor uint64
	for {
		fr := page(cursor)
		pages++
		if len(fr.Payload) > bus.MaxPayload {
			t.Fatalf("page at %d: %d bytes, over the %d cap", cursor, len(fr.Payload), bus.MaxPayload)
		}
		r := bus.NewReader(fr.Payload)
		if st := r.U8(); st != StatusOK {
			t.Fatalf("page at %d: status %#x", cursor, st)
		}
		next := r.UVarint()
		got := lc.read(r)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("page at %d malformed: %v, %d bytes left", cursor, r.Err(), r.Remaining())
		}
		items = append(items, got...)
		if next == 0 {
			return items, pages
		}
		if next <= cursor {
			t.Fatalf("cursor did not advance: %d after %d", next, cursor)
		}
		cursor = next
	}
}

func TestListRepliesPageToTheEnd(t *testing.T) {
	for _, lc := range listCases() {
		t.Run(lc.name, func(t *testing.T) {
			onePage := func(n int) bool {
				r := bus.NewReader(lc.page(n, 0).Payload)
				r.U8()
				return r.UVarint() == 0
			}
			// The largest list that fits one frame (fitting is monotone in n).
			fit := sort.Search(lc.max, func(n int) bool { return !onePage(n + 1) })
			if fit < 1 || fit >= lc.max {
				t.Fatalf("the largest one-frame list holds %d items of at most %d", fit, lc.max)
			}
			for _, n := range []int{0, 1, fit, fit + 1, lc.max} {
				got, pages := lc.walk(t, func(c uint64) bus.Frame { return lc.page(n, c) })
				if want := lc.want(n); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("%d items: pages join to %d items, want %d in order", n, len(got), len(want))
				}
				if wantOne := n <= fit; (pages == 1) != wantOne || (n == fit+1 && pages != 2) {
					t.Errorf("%d items took %d page(s); one frame holds %d", n, pages, fit)
				}
			}
		})
	}
}

// TestFleetListChurnBetweenPages: ids removed between two FleetList
// pages — the one the cursor names included — neither repeat nor hide
// any other id.
func TestFleetListChurnBetweenPages(t *testing.T) {
	reg := make([]uint16, 5000)
	for i := range reg {
		reg[i] = uint16(3 * i)
	}
	lc := listCaseNamed("fleet-list")
	sent := reg[5]
	ahead := map[uint16]bool{}
	var cursors []uint64
	got, pages := lc.walk(t, func(cursor uint64) bus.Frame {
		cursors = append(cursors, cursor)
		if len(cursors) == 2 {
			// Between the first and second page: drop an id already
			// sent, the id the cursor names and one further on.
			ahead[uint16(cursor)], ahead[reg[len(reg)-10]] = true, true
			for _, id := range []uint16{sent, uint16(cursor), reg[len(reg)-10]} {
				i := sort.Search(len(reg), func(i int) bool { return reg[i] >= id })
				reg = append(reg[:i], reg[i+1:]...)
			}
		}
		i := sort.Search(len(reg), func(i int) bool { return uint64(reg[i]) >= cursor })
		return FleetListReply(bus.Frame{}, reg[i:])
	})
	if pages < 3 {
		t.Fatalf("5000 ids took %d page(s); the test needs a removal between pages", pages)
	}
	var want []string
	for i := 0; i < 5000; i++ {
		if id := uint16(3 * i); !ahead[id] {
			want = append(want, fmt.Sprint(id))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pages across churn list %d ids, want %d: every id once, less the two removed ahead of the cursor", len(got), len(want))
	}
}

// TestListItemTooBigForAFrame: a series name longer than a frame is
// left out of the listing — its page carries nothing and moves past it
// — rather than answered with a frame over the cap.
func TestListItemTooBigForAFrame(t *testing.T) {
	names := []string{"a", strings.Repeat("b", bus.MaxPayload), "c"}
	lc := listCaseNamed("series")
	got, pages := lc.walk(t, func(cursor uint64) bus.Frame { return SeriesListReply(bus.Frame{}, names, cursor) })
	if !reflect.DeepEqual(got, []string{"a", "c"}) || pages != 3 {
		t.Errorf("listing with an oversize name = %q over %d pages, want a and c over 3", got, pages)
	}
}
