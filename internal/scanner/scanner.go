// Package scanner simulates the Shodan-style Internet-wide scanning
// feed of §3.2: daily IPv4 scans discovering open DNS services, with a
// per-IP history (first seen / last seen) retrievable via historic
// lookup (§7.1, Fig. 15).
//
// The scanner is imperfect on purpose: each alive amplifier is detected
// per scan day with a fixed probability, so recently appeared reflectors
// may be abused before the scanner first records them — the paper's "2%
// of amplifiers are abused before they show up in public scan data".
package scanner

import (
	"math/rand"
	"net/netip"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/resolver"
	"dnsamp/internal/simclock"
)

// The scan simulation's coverage, matching the paper's.
const (
	// dailyDetectionProb is the chance one daily scan observes an alive
	// open resolver.
	dailyDetectionProb float64 = 0.9
	// coverageProb is the chance an amplifier is scannable at all
	// (Shodan "omits transparent DNS forwarders"; still ~95% of abused
	// amplifiers appear in its index).
	coverageProb float64 = 0.95
	// scanSeed seeds the scan draws.
	scanSeed = 3
)

// History is one address's scan record.
type History struct {
	FirstSeen simclock.Time
	LastSeen  simclock.Time
	// Kind as classified by the scanner.
	Kind resolver.Kind
}

// Index is the full simulated scan database.
type Index struct {
	hist map[netip.Addr]History
}

// Build runs the simulated daily scans over the amplifier pool across
// the given window and returns the index. Scanning runs from the history
// horizon (2016) so that first-seen dates predate the campaign.
func Build(pool *ecosystem.Pool, window simclock.Window) *Index {
	rng := rand.New(rand.NewSource(scanSeed))
	idx := &Index{hist: make(map[netip.Addr]History, pool.Len())}
	for i := 0; i < pool.Len(); i++ {
		a := pool.Get(i)
		if rng.Float64() >= coverageProb {
			continue // never indexed (e.g. transparent forwarder)
		}
		// Instead of simulating every scan day, draw the discovery lag
		// and the last successful scan directly: discovery is the first
		// success of a daily Bernoulli(p) process after Born, i.e.
		// geometric; the last success is symmetric before min(Died,
		// window end).
		lag := geometricDays(rng, dailyDetectionProb)
		first := a.Born.Add(simclock.Days(lag))
		end := a.Died
		if end.After(window.End) {
			end = window.End
		}
		backLag := geometricDays(rng, dailyDetectionProb)
		last := end.Add(-simclock.Days(backLag + 1))
		if last.Before(first) {
			// The service lived too briefly for a second observation.
			last = first
		}
		if first.After(end) {
			continue // died before any scan caught it
		}
		// Histories are per IP address: if an address hosted several
		// occupants over time, the scan record spans them all.
		if prev, ok := idx.hist[a.Addr]; ok {
			if prev.FirstSeen.Before(first) {
				first = prev.FirstSeen
			}
			if prev.LastSeen.After(last) {
				last = prev.LastSeen
			}
		}
		idx.hist[a.Addr] = History{FirstSeen: first, LastSeen: last, Kind: a.Kind}
	}
	return idx
}

// geometricDays draws the number of failure days before the first
// success of a Bernoulli(p) process.
func geometricDays(rng *rand.Rand, p float64) int {
	if p >= 1 {
		return 0
	}
	n := 0
	for rng.Float64() >= p && n < 3650 {
		n++
	}
	return n
}

// Lookup returns the scan history of an address.
func (idx *Index) Lookup(addr netip.Addr) (History, bool) {
	h, ok := idx.hist[addr]
	return h, ok
}
