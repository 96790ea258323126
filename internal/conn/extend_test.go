package conn

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/worldstore"
)

// storeExtender is an Extender that counts on the local world store — the
// same integers the shard coordinator gathers from its workers — and
// records the lo vector of every call. While fail is set, calls return it
// having added nothing.
type storeExtender struct {
	store *worldstore.Store
	fail  error
	calls [][]int
}

func (e *storeExtender) extend(_ context.Context, cs []graph.NodeID, depth int, lo []int, r int, counts [][]int32) error {
	e.calls = append(e.calls, append([]int(nil), lo...))
	if e.fail != nil {
		return e.fail
	}
	for j, c := range cs {
		if depth < 0 {
			e.store.CountConnectedFrom(c, lo[j], r, counts[j])
		} else {
			e.store.CountWithinMulti([]graph.NodeID{c}, depth, []int{lo[j]}, r, [][]int32{counts[j]})
		}
	}
	return nil
}

func sameBits(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), len(want))
	}
	for j := range want {
		for u := range want[j] {
			if math.Float64bits(got[j][u]) != math.Float64bits(want[j][u]) {
				t.Fatalf("%s: vector %d node %d = %v, want %v", label, j, u, got[j][u], want[j][u])
			}
		}
	}
}

// TestExtenderFailureMovesNoTally: a failing Extender surfaces its error
// and leaves every tally where it was, so the next call extends from the
// same progress and answers bit-identically to a local estimator.
func TestExtenderFailureMovesNoTally(t *testing.T) {
	g := gridGraph(t, 8, 6, 0.5)
	const seed = 23
	cs := []graph.NodeID{3, 9, 3, 40}
	for _, depth := range []int{Unlimited, 2} {
		ext := &storeExtender{store: worldstore.Shared(g, seed)}
		mc := NewMonteCarloExtended(g, seed, ext.extend)
		mc.FromCenters(cs, depth, 100)

		ext.fail = errors.New("scatter failed")
		if _, err := mc.FromCentersCtx(context.Background(), cs, depth, 500); !errors.Is(err, ext.fail) {
			t.Fatalf("depth=%d: error %v, want the extender's", depth, err)
		}
		ext.fail = nil
		got := mc.FromCenters(cs, depth, 500)
		sameBits(t, "after failure", got, NewMonteCarlo(g, seed).FromCenters(cs, depth, 500))
		if last := ext.calls[len(ext.calls)-1]; !reflect.DeepEqual(last, []int{100, 100, 100}) {
			t.Fatalf("depth=%d: retry extended from %v, want the pre-failure progress 100", depth, last)
		}
	}
}

// TestExtenderOneCallPerBatch: a batch whose tallies sit at different
// progress makes exactly one Extender call, with lo equal to each
// tally's progress, and is not chunked however many worlds it spans.
func TestExtenderOneCallPerBatch(t *testing.T) {
	g := gridGraph(t, 8, 6, 0.5)
	const seed = 29
	ext := &storeExtender{store: worldstore.Shared(g, seed)}
	mc := NewMonteCarloExtended(g, seed, ext.extend)
	local := NewMonteCarlo(g, seed)
	for _, o := range []*MonteCarlo{mc, local} {
		o.FromCenter(1, Unlimited, 300)
		o.FromCenter(2, Unlimited, 100)
	}
	ext.calls = nil

	const r = 3 * ctxChunk
	cs := []graph.NodeID{1, 2, 3, 2}
	got := mc.FromCenters(cs, Unlimited, r)
	if want := [][]int{{300, 100, 0}}; !reflect.DeepEqual(ext.calls, want) {
		t.Fatalf("extender calls %v, want %v", ext.calls, want)
	}
	sameBits(t, "mixed progress", got, local.FromCenters(cs, Unlimited, r))

	// Tallies that already cover r need no call at all.
	ext.calls = nil
	mc.FromCenters(cs, Unlimited, 200)
	if len(ext.calls) != 0 {
		t.Fatalf("covered batch made %d extender calls", len(ext.calls))
	}
}
