package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"dnsamp/internal/binenc"
	"dnsamp/internal/dnswire"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// trackedCounts reads ag's tracked-name counts back per client-day and
// name, failing unless the pair table is well formed: every row names a
// held slot and a name of the table, no (slot, ID) pair has two rows,
// and the index resolves every row to itself.
func trackedCounts(t *testing.T, ag *Aggregator, what string) map[ClientDay]map[string]int {
	t.Helper()
	p := &ag.pairs
	out := map[ClientDay]map[string]int{}
	seen := map[[2]uint32]bool{}
	for r, row := range p.rows {
		switch {
		case int(row.slot) >= ag.n:
			t.Fatalf("%s: row %d names slot %d of a %d-profile arena", what, r, row.slot, ag.n)
		case int(row.id) >= ag.Table.Len():
			t.Fatalf("%s: row %d names ID %d of a %d-name table", what, r, row.id, ag.Table.Len())
		case seen[[2]uint32{row.slot, row.id}]:
			t.Fatalf("%s: two rows for slot %d, ID %d", what, row.slot, row.id)
		}
		seen[[2]uint32{row.slot, row.id}] = true
		i := pairHash(row.slot, row.id) & p.mask
		for p.ctrl[i] != uint32(r+1) {
			if p.ctrl[i] == 0 {
				t.Fatalf("%s: the index does not resolve row %d (slot %d, ID %d)", what, r, row.slot, row.id)
			}
			i = (i + 1) & p.mask
		}
		key := ag.keyAt(row.slot)
		if out[key] == nil {
			out[key] = map[string]int{}
		}
		out[key][ag.Table.Name(row.id)] = row.n
	}
	return out
}

// TestReadSnapshotRejectsBadTracked: a tracked list that is not what
// WriteSnapshot writes — out of order, repeating an ID, or naming an ID
// the table does not hold — fails the restore with a decoder error.
func TestReadSnapshotRejectsBadTracked(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  [2]uint32
	}{
		{"descending", [2]uint32{1, 0}},
		{"duplicate", [2]uint32{0, 0}},
		{"outside table", [2]uint32{0, 2}},
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

			// The one profile's list, two 12-byte entries, ends the
			// snapshot: overwrite it with the bad one.
			var buf, bad bytes.Buffer
			e := binenc.NewEncoder(&buf)
			ag.WriteSnapshot(e)
			eb := binenc.NewEncoder(&bad)
			for _, id := range tc.ids {
				eb.U32(id)
				eb.I64(1)
			}
			if err := errors.Join(e.Flush(), eb.Flush()); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			copy(raw[len(raw)-bad.Len():], bad.Bytes())

			err := NewAggregator(tab, nil).ReadSnapshot(binenc.NewDecoder(raw, errSnapTest))
			if !errors.Is(err, errSnapTest) {
				t.Fatalf("restore of tracked IDs %v: err %v, want a decode error", tc.ids, err)
			}
		})
	}
}

// TestArenaPointerFree pins the arena's layout: a profile and an arena
// chunk hold no pointer, slice, map, string or other reference, so the
// chunks stay off the collector's scan list, and a profile is 48 bytes.
func TestArenaPointerFree(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the arena must hold no reference", path, ty.Kind())
		}
	}
	walk("ClientAgg", reflect.TypeFor[ClientAgg]())
	walk("arenaChunk", reflect.TypeFor[arenaChunk]())
	if size := reflect.TypeFor[ClientAgg]().Size(); size != 48 {
		t.Errorf("ClientAgg is %d bytes, want 48", size)
	}
}
