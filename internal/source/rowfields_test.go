package source

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"dnsamp/internal/binenc"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// TestSnapshotRowFields holds the snapshot's column list to the row:
// one column per BatchRecord field, so a field added to the row cannot
// be dropped from snapshots silently, rowBytes bytes a row, and a row
// whose fields all hold distinct non-zero values comes back whole.
func TestSnapshotRowFields(t *testing.T) {
	if n, fields := len(rowFields), reflect.TypeFor[ixp.BatchRecord]().NumField(); n != fields {
		t.Fatalf("%d snapshot columns for a %d-field BatchRecord", n, fields)
	}
	var one bytes.Buffer
	e := binenc.NewEncoder(&one)
	for _, f := range rowFields {
		f.put(e, &ixp.BatchRecord{})
	}
	if err := e.Flush(); err != nil || one.Len() != rowBytes {
		t.Fatalf("a row encodes in %d bytes (%v), rowBytes says %d", one.Len(), err, rowBytes)
	}
	tab := names.NewTable()
	for i := range 14 {
		tab.Intern("n" + strconv.Itoa(i) + ".example.")
	}
	want := ixp.BatchRecord{
		Time:      simclock.MeasurementStart.Add(1),
		Src:       [4]byte{1, 2, 3, 4},
		Dst:       [4]byte{5, 6, 7, 8},
		SrcPort:   0x1234,
		DstPort:   0x2345,
		IPTTL:     0x56,
		IPID:      0x3456,
		Resp:      true,
		Name:      13,
		QType:     0x4567,
		TXID:      0x5678,
		MsgSize:   0x01234567,
		ANCount:   0x6789,
		VisibleNS: 0x789a,
		Ingress:   0x89abcdef,
	}
	v := reflect.ValueOf(want)
	for f := range v.NumField() {
		if v.Field(f).IsZero() {
			t.Fatalf("test row leaves %s zero", v.Type().Field(f).Name)
		}
	}
	b := &ixp.SampleBatch{Table: tab}
	b.Count(ixp.Keep)
	b.Append(want)
	r := NewReplay(tab)
	r.AddDay(want.Time, b, nil)
	var buf bytes.Buffer
	if err := r.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Day(want.Time)
	if got == nil || got.N != 1 || len(got.Rows) != 1 || got.Rows[0] != want {
		t.Fatalf("round trip of %+v gave %+v", want, got)
	}
}
