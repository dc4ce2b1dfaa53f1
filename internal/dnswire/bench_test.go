package dnswire_test

// External test package: the response under test comes from
// internal/zonedb, which imports dnswire.

import (
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// BenchmarkDNSScanTruncated scans what a 128-byte snaplen leaves of a
// large ANY response (86 bytes of DNS payload) into a reused name
// buffer, as the capture point does for every sample: 0 allocs/op.
func BenchmarkDNSScanTruncated(b *testing.B) {
	db := zonedb.New(zonedb.Config{ProceduralNames: 1000})
	z, _ := db.Zone("doj.gov")
	q := dnswire.NewQuery(7, "doj.gov", dnswire.TypeANY, 4096)
	wire := dnswire.Encode(z.BuildANYResponse(q, simclock.MeasurementStart))[:86]
	name := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Scan(wire, name); err != nil {
			b.Fatal(err)
		}
	}
}
