// Package honeypot models the CCC honeypot platform of §3.2: ~80
// distributed sensors emulating open DNS resolvers, plus the attack
// inference the Cambridge Cybercrime Centre applies — at least 5 requests
// per sensor with no gap larger than 900 seconds (Appendix B).
package honeypot

import (
	"net/netip"
	"slices"
	"sort"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/simclock"
)

// InferenceConfig holds the CCC thresholds (Appendix B). Related
// platforms use stricter settings (AmpPot: 100 packets / 3600 s gap;
// Noroozian et al.: 600 s gap), which the ablation bench compares.
type InferenceConfig struct {
	MinRequests int
	MaxGap      simclock.Duration
}

// CCCThresholds returns the platform's sensitive defaults.
func CCCThresholds() InferenceConfig {
	return InferenceConfig{MinRequests: 5, MaxGap: 900 * simclock.Second}
}

// AmpPotThresholds returns the stricter AmpPot-style settings used for
// comparison in Appendix B.
func AmpPotThresholds() InferenceConfig {
	return InferenceConfig{MinRequests: 100, MaxGap: 3600 * simclock.Second}
}

// Attack is one honeypot-inferred attack event.
type Attack struct {
	Victim netip.Addr
	Start  simclock.Time
	End    simclock.Time
	// Sensors lists the sensor indices that observed the attack.
	Sensors []int
	// Requests is the total request count across sensors.
	Requests int
	// QNames are the query names observed (the paper deliberately does
	// not use them for Selector 3, but they are in the data).
	QNames map[string]bool
	// QType is the dominant query type.
	QType dnswire.Type
	// EventIDs are ground-truth links for validation only.
	EventIDs map[int]bool
}

// VictimKey returns the victim as a map key.
func (a *Attack) VictimKey() [4]byte { return a.Victim.As4() }

// Platform accumulates sensor flows and infers attacks.
type Platform struct {
	Cfg        InferenceConfig
	NumSensors int

	// perVictim accumulates qualifying sensor observations keyed by
	// victim; merged into attacks at Finalize.
	obs map[[4]byte][]*sensorObs
}

type sensorObs struct {
	sensor   int
	start    simclock.Time
	end      simclock.Time
	requests int
	qname    string
	qtype    dnswire.Type
	eventID  int
}

// NewPlatform creates a platform with the given inference thresholds.
func NewPlatform(cfg InferenceConfig, numSensors int) *Platform {
	return &Platform{Cfg: cfg, NumSensors: numSensors, obs: make(map[[4]byte][]*sensorObs)}
}

// Accepts reports whether a sensor flow qualifies as an attack
// observation: at least MinRequests requests with no gap above MaxGap —
// exactly the CCC rule ("5 requests per sensor with no gap of more than
// 900 seconds").
func (cfg InferenceConfig) Accepts(f ecosystem.SensorFlow) bool {
	if f.Count < cfg.MinRequests {
		return false
	}
	// Requests are spread across the flow; the largest inter-request
	// gap under even spacing is Duration/(Count-1).
	return f.Count <= 1 || f.Duration/simclock.Duration(f.Count-1) <= cfg.MaxGap
}

// Observe ingests one sensor flow; flows the configuration does not
// accept are ignored.
func (p *Platform) Observe(f ecosystem.SensorFlow) {
	if !p.Cfg.Accepts(f) {
		return
	}
	key := f.Victim.As4()
	p.obs[key] = append(p.obs[key], &sensorObs{
		sensor:   f.Sensor,
		start:    f.Start,
		end:      f.Start.Add(f.Duration),
		requests: f.Count,
		qname:    f.QName,
		qtype:    f.QType,
		eventID:  f.EventID,
	})
}

// Finalize merges per-victim observations into attacks: observations
// against the same victim that overlap or follow within MaxGap belong to
// one attack.
func (p *Platform) Finalize() []*Attack {
	var out []*Attack
	for victim, obs := range p.obs {
		slices.SortFunc(obs, func(a, b *sensorObs) int { return int(a.start - b.start) })
		var cur *Attack
		for _, o := range obs {
			if cur == nil || o.start.Sub(cur.End) > p.Cfg.MaxGap {
				cur = &Attack{
					Victim:   netip.AddrFrom4(victim),
					Start:    o.start,
					End:      o.end,
					QNames:   make(map[string]bool),
					QType:    o.qtype,
					EventIDs: make(map[int]bool),
				}
				out = append(out, cur)
			}
			if o.end.After(cur.End) {
				cur.End = o.end
			}
			cur.Sensors = appendUnique(cur.Sensors, o.sensor)
			cur.Requests += o.requests
			cur.QNames[o.qname] = true
			cur.EventIDs[o.eventID] = true
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Victim.Less(out[j].Victim)
	})
	return out
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// Convergence computes the sensor-convergence curve of Fig. 18: sensors
// sorted descending by detected victims, cumulative victim coverage.
func Convergence(attacks []*Attack, numSensors int) []float64 {
	victimsBySensor := make([]map[[4]byte]bool, numSensors)
	for i := range victimsBySensor {
		victimsBySensor[i] = make(map[[4]byte]bool)
	}
	all := make(map[[4]byte]bool)
	for _, a := range attacks {
		k := a.VictimKey()
		all[k] = true
		for _, s := range a.Sensors {
			if s >= 0 && s < numSensors {
				victimsBySensor[s][k] = true
			}
		}
	}
	order := make([]int, numSensors)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return len(victimsBySensor[order[i]]) > len(victimsBySensor[order[j]])
	})
	seen := make(map[[4]byte]bool)
	curve := make([]float64, numSensors)
	for i, s := range order {
		for k := range victimsBySensor[s] {
			seen[k] = true
		}
		if len(all) > 0 {
			curve[i] = float64(len(seen)) / float64(len(all))
		} else {
			curve[i] = 1
		}
	}
	return curve
}
