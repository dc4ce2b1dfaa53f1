package analysis

import (
	"cmp"
	"slices"
	"strings"

	"dnsamp/internal/core"
	"dnsamp/internal/dnswire"
)

// Table2Row is one per-TLD row of Table 2: the distribution of attacks
// and attack traffic across misused names.
type Table2Row struct {
	TLD string
	// Names is the number of misused names under the TLD.
	Names int
	// PacketShare is the TLD's share of attack packets (percent).
	PacketShare float64
	// Attacks counts attack events whose traffic includes the TLD's
	// names.
	Attacks int
	// MaxSize is the largest observed response size (bytes).
	MaxSize int
}

// Table2 reproduces Table 2 from attack records and the candidate list.
func Table2(records []*core.AttackRecord, candidates map[string]bool) []Table2Row {
	type agg struct {
		names   map[string]bool
		packets int
		attacks int
		maxSize int
	}
	byTLD := make(map[string]*agg)
	total := 0
	for name := range candidates {
		tld := dnswire.TLD(name)
		if byTLD[tld] == nil {
			byTLD[tld] = &agg{names: make(map[string]bool)}
		}
	}
	for _, r := range records {
		// Per-record attribution: every TLD with traffic in the record
		// counts one attack; packets attribute per name.
		seen := make(map[string]bool)
		for name, pkts := range r.Names {
			tld := dnswire.TLD(name)
			a := byTLD[tld]
			if a == nil {
				a = &agg{names: make(map[string]bool)}
				byTLD[tld] = a
			}
			a.names[name] = true
			a.packets += pkts
			total += pkts
			if !seen[tld] {
				a.attacks++
				seen[tld] = true
			}
		}
		// Max observed size attributed to the dominant name's TLD.
		dom := dnswire.TLD(r.DominantName())
		if a := byTLD[dom]; a != nil {
			for _, s := range r.Sizes {
				if s > a.maxSize {
					a.maxSize = s
				}
			}
		}
	}
	var rows []Table2Row
	for tld, a := range byTLD {
		if len(a.names) == 0 && a.packets == 0 {
			continue
		}
		row := Table2Row{TLD: tld, Names: len(a.names), Attacks: a.attacks, MaxSize: a.maxSize}
		if total > 0 {
			row.PacketShare = 100 * float64(a.packets) / float64(total)
		}
		rows = append(rows, row)
	}
	slices.SortFunc(rows, func(a, b Table2Row) int { return cmp.Or(b.Attacks-a.Attacks, strings.Compare(a.TLD, b.TLD)) })
	return rows
}

// DurationQuartiles summarizes attack durations (§4.2: 25% < 7 min,
// 50% < 33 min). Durations are observed spans of sampled packets, which
// underestimate short attacks; the paper has the same limitation.
type DurationQuartiles struct {
	Q25, Q50, Q75 float64 // seconds
}

// AttackDurations computes quartiles over records.
func AttackDurations(records []*core.AttackRecord) DurationQuartiles {
	var xs []float64
	for _, r := range records {
		xs = append(xs, float64(r.Duration()))
	}
	if len(xs) == 0 {
		return DurationQuartiles{}
	}
	slices.Sort(xs)
	q := func(p float64) float64 {
		i := int(p * float64(len(xs)-1))
		return xs[i]
	}
	return DurationQuartiles{Q25: q(0.25), Q50: q(0.5), Q75: q(0.75)}
}

// VictimClassShare reports the share of attack traffic per victim AS
// class (§4.2: ISP networks 36%, content 24%).
func VictimClassShare(records []*core.AttackRecord, classOf func(uint32) string) map[string]float64 {
	byClass := make(map[string]int)
	total := 0
	for _, r := range records {
		cls := classOf(r.VictimASN)
		byClass[cls] += r.Packets
		total += r.Packets
	}
	out := make(map[string]float64, len(byClass))
	for cls, n := range byClass {
		if total > 0 {
			out[cls] = float64(n) / float64(total)
		}
	}
	return out
}
