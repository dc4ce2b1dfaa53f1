package dnswire_test

// External test package: the response under test comes from
// internal/zonedb, which imports dnswire.

import (
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// BenchmarkDNSParseTruncated parses what a 128-byte snaplen leaves of a
// large ANY response (86 bytes of DNS payload): the reference parser
// that FuzzScanMatchesParse holds dnswire.Scan equal to.
func BenchmarkDNSParseTruncated(b *testing.B) {
	db := zonedb.New(zonedb.Config{ProceduralNames: 1000})
	z, _ := db.Zone("doj.gov")
	q := dnswire.NewQuery(7, "doj.gov", dnswire.TypeANY, 4096)
	wire := dnswire.Encode(z.BuildANYResponse(q, simclock.MeasurementStart))[:86]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dnswire.Parse(wire)
	}
}
