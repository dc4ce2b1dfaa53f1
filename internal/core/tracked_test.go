package core

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"dnsamp/internal/binenc"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// addTrackedLinear is the sorted-insert linear scan addTracked replaced:
// the oracle its binary search must agree with after every call.
func addTrackedLinear(a *ClientAgg, id uint32, n int) {
	for i := range a.Tracked {
		switch {
		case a.Tracked[i].ID == id:
			a.Tracked[i].N += n
			return
		case a.Tracked[i].ID > id:
			a.Tracked = append(a.Tracked, NameCount{})
			copy(a.Tracked[i+1:], a.Tracked[i:])
			a.Tracked[i] = NameCount{ID: id, N: n}
			return
		}
	}
	a.Tracked = append(a.Tracked, NameCount{ID: id, N: n})
}

// TestAddTrackedMatchesLinear: seeded random call sequences — narrow ID
// ranges that mostly hit, wide ones that mostly insert, ascending and
// descending runs that insert at either end — leave the binary-search
// list equal to the linear oracle's after every call.
func TestAddTrackedMatchesLinear(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		span := 1 + rng.IntN(2000)
		var got, want ClientAgg
		for step := 0; step < 1500; step++ {
			var id uint32
			switch rng.IntN(4) {
			case 0:
				id = uint32(step) // ascending: appends at the end
			case 1:
				id = uint32(1<<20 - step) // descending: inserts at the front
			default:
				id = uint32(rng.IntN(span))
			}
			n := 1 + rng.IntN(3)
			got.addTracked(id, n)
			addTrackedLinear(&want, id, n)
			if !slices.Equal(got.Tracked, want.Tracked) {
				t.Fatalf("seed %d step %d: addTracked(%d, %d) gave %d entries, linear oracle %d",
					seed, step, id, n, len(got.Tracked), len(want.Tracked))
			}
		}
	}
}

// TestReadSnapshotRejectsBadTracked: a tracked list that is not what
// addTracked keeps — out of order, repeating an ID, or naming an ID the
// table does not hold — fails the restore with a decoder error.
func TestReadSnapshotRejectsBadTracked(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tracked []NameCount
	}{
		{"descending", []NameCount{{ID: 1, N: 1}, {ID: 0, N: 1}}},
		{"duplicate", []NameCount{{ID: 0, N: 1}, {ID: 0, N: 2}}},
		{"outside table", []NameCount{{ID: 0, N: 1}, {ID: 2, N: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := names.NewTable()
			ag := NewAggregator(tab, nil)
			ag.SetTrackAll(true)
			at := simclock.MeasurementStart
			ag.Observe(snapSample(tab, at, 1, "a.test", dnswire.TypeA, 100, false))
			ag.Observe(snapSample(tab, at, 1, "b.test", dnswire.TypeA, 100, false))
			if tab.Len() != 2 || ag.NumClients() != 1 {
				t.Fatalf("setup: %d names, %d clients", tab.Len(), ag.NumClients())
			}
			ag.at(0).Tracked = tc.tracked

			var buf bytes.Buffer
			e := binenc.NewEncoder(&buf)
			ag.WriteSnapshot(e)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			err := NewAggregator(tab, nil).ReadSnapshot(binenc.NewDecoder(buf.Bytes(), errSnapTest))
			if !errors.Is(err, errSnapTest) {
				t.Fatalf("restore of tracked list %v: err %v, want a decode error", tc.tracked, err)
			}
		})
	}
}
