// Package openintel simulates the OpenINTEL active DNS measurement feed
// of §3.2: daily measurements of a large share of the global namespace,
// from which the analyses derive (i) historical ANY response-size series
// per name (Fig. 8b), (ii) the amplification-potential CDF over all
// names (Fig. 16), and (iii) the mapping from amplifier IP addresses to
// authoritative nameservers (§7.1).
package openintel

import (
	"net/netip"

	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// Feed is the simulated measurement archive. It is a thin, read-only
// view over the namespace database: OpenINTEL measures what the DNS
// stores, and so does this feed.
type Feed struct {
	db *zonedb.DB
	// nsAddrs maps authoritative nameserver addresses to the zones they
	// serve (built from the same records OpenINTEL collects as NS/A
	// glue).
	nsAddrs map[netip.Addr][]string
}

// New builds the feed over the namespace.
func New(db *zonedb.DB) *Feed {
	f := &Feed{db: db, nsAddrs: make(map[netip.Addr][]string)}
	for _, name := range db.ExplicitNames() {
		z, _ := db.Zone(name)
		for _, a := range z.NSAddrs {
			f.nsAddrs[a] = append(f.nsAddrs[a], name)
		}
	}
	return f
}

// ANYSizeSeries returns the daily estimated ANY response size of a name
// across the window — the series whose plateaus reveal DNSSEC key
// rollovers (Fig. 8b).
func (f *Feed) ANYSizeSeries(name string, w simclock.Window) []SizePoint {
	var out []SizePoint
	w.EachDay(func(day simclock.Time) {
		out = append(out, SizePoint{Day: day, Size: f.db.ANYSize(name, day)})
	})
	return out
}

// SizePoint is one day's measurement.
type SizePoint struct {
	Day  simclock.Time
	Size int
}

// ANYSize returns the estimated ANY response size of any measured name
// at t.
func (f *Feed) ANYSize(name string, t simclock.Time) int { return f.db.ANYSize(name, t) }

// NumNames returns the total number of measured names (explicit +
// procedural bulk).
func (f *Feed) NumNames() int {
	return f.db.NumProceduralNames() + len(f.db.ExplicitNames())
}

// EachName iterates over every measured name. The bulk namespace is
// procedural, so iteration is cheap in memory even at 4.4 M names.
func (f *Feed) EachName(fn func(name string)) {
	for _, n := range f.db.ExplicitNames() {
		fn(n)
	}
	for i := 0; i < f.db.NumProceduralNames(); i++ {
		fn(f.db.ProceduralName(i))
	}
}

// AuthoritativeZonesFor maps an amplifier address to the zones it is an
// authoritative nameserver for (empty for open resolvers/forwarders) —
// the classification step of §7.1 ("we use these data to associate
// amplifier IP addresses with authoritative nameservers").
func (f *Feed) AuthoritativeZonesFor(addr netip.Addr) []string {
	return f.nsAddrs[addr]
}

// RegisterNS adds an NS-address mapping. The real OpenINTEL learns
// these from NS and glue records across its 1200+ zonefiles; the
// simulated feed registers the synthetic authoritative population the
// same way.
func (f *Feed) RegisterNS(addr netip.Addr, zone string) {
	f.nsAddrs[addr] = append(f.nsAddrs[addr], zone)
}

// RolloverPlateaus extracts the rollover plateaus from a size series: a
// plateau is a maximal run of days whose size exceeds the series
// baseline (minimum) by at least minDelta bytes.
func RolloverPlateaus(series []SizePoint, minDelta int) []Plateau {
	if len(series) == 0 {
		return nil
	}
	base := series[0].Size
	for _, p := range series {
		if p.Size < base {
			base = p.Size
		}
	}
	var out []Plateau
	var cur *Plateau
	for _, p := range series {
		if p.Size >= base+minDelta {
			if cur == nil {
				out = append(out, Plateau{Start: p.Day, End: p.Day.Add(simclock.Day), Size: p.Size})
				cur = &out[len(out)-1]
			} else {
				cur.End = p.Day.Add(simclock.Day)
				if p.Size > cur.Size {
					cur.Size = p.Size
				}
			}
		} else {
			cur = nil
		}
	}
	return out
}

// Plateau is one elevated-size span (a rollover overlap).
type Plateau struct {
	Start, End simclock.Time
	Size       int
}

// Days returns the plateau length in days.
func (p Plateau) Days() int { return p.End.DayIndex(p.Start) }
