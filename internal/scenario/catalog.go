package scenario

import (
	"fmt"
	"math/rand"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
)

// Catalog returns the scenario catalog in its stable report order:
// attack scenarios first, then the benign confounders. All counts below
// are *sampled* packets per day — the unit the detector's
// Thresholds.MinPackets operates on (one sampled record stands for
// ~16k wire packets at the default sFlow rate).
func Catalog() []*Scenario {
	return []*Scenario{
		PulseWave(),
		CarpetBomb(),
		RandomSubdomain(),
		SlowDrip(),
		ResolverChurn(),
		FlashCrowd(),
		ScannerBurst(),
	}
}

// attackSize is the announced UDP payload size of an amplified
// response; large enough that any reasonable amplification-factor
// heuristic counts it, small enough to stay within every EDNS cap.
const attackSize = 2900

// PulseWave is the on/off burst amplification attack: a quiet ramp day
// below MinPackets, then full-rate days delivered as short pulses with
// silent gaps (the attacker's duty cycling). Detection at default
// thresholds starts one day after the attack does — time-to-detect 1 —
// because the per-day aggregation integrates over the duty cycle.
func PulseWave() *Scenario {
	sc := &Scenario{
		Name: "pulse-wave",
		Kind: Attack,
		Description: "single victim; ramp day under MinPackets, then " +
			"48 pkts/day in on/off bursts",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		victims, origins := pickVictims(env, rng, 1)
		victim, victimAS := victims[0], origins[0]
		name := candidateName(env, rng)
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 24)
		return &Plan{
			Truth: []GroundTruth{{Victim: victim.As4(), Days: truthDays(env, 1, env.P.Days)}},
			From:  1,
			To:    env.P.Days,
			Emit: func(e *emitter) {
				pkts := 48
				if e.idx == 1 {
					pkts = 6 // ramp: below DefaultThresholds.MinPackets
				}
				// Eight pulses of equal share, each a few minutes
				// wide, with silent gaps in between.
				for i := 0; i < pkts; i++ {
					pulse := i % 8
					off := simclock.Duration(pulse)*simclock.Hours(3) +
						simclock.Duration(e.rng.Int63n(int64(simclock.Minutes(5))))
					amp := amps[e.rng.Intn(len(amps))]
					e.response(e.day.Add(off), amp, victim, victimAS,
						name, dnswire.TypeANY, dnswire.RCodeNoError, attackSize)
				}
			},
		}
	}
	return sc
}

// CarpetBomb sprays a whole set of victims with a low per-victim rate:
// every victim-day sits below DefaultThresholds.MinPackets, so the
// attack is invisible at defaults and only appears when MinPackets is
// lowered — the recall/threshold trade-off the eval grid exposes.
func CarpetBomb() *Scenario {
	sc := &Scenario{
		Name: "carpet-bomb",
		Kind: Attack,
		Description: "36 victims x 6 pkts/day each, all under the " +
			"default MinPackets",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		const nVictims = 36
		victims, origins := pickVictims(env, rng, nVictims)
		name := candidateName(env, rng)
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 24)
		truth := make([]GroundTruth, nVictims)
		for i, v := range victims {
			truth[i] = GroundTruth{Victim: v.As4(), Days: truthDays(env, 1, env.P.Days)}
		}
		return &Plan{
			Truth: truth,
			From:  1,
			To:    env.P.Days,
			Emit: func(e *emitter) {
				for vi, v := range victims {
					for i := 0; i < 6; i++ {
						amp := amps[e.rng.Intn(len(amps))]
						e.response(e.dayTime(), amp, v, origins[vi], name,
							dnswire.TypeANY, dnswire.RCodeNoError, attackSize)
					}
				}
			},
		}
	}
	return sc
}

// RandomSubdomain is the water-torture / NXDOMAIN flood: spoofed
// queries for unique random labels under a victim zone, answered
// NXDOMAIN. None of the random names are tracked candidates, so the
// candidate-share detector scores zero recall at every grid point —
// the catalog's documented blind spot (the paper's method targets
// amplification, not resolver exhaustion).
func RandomSubdomain() *Scenario {
	sc := &Scenario{
		Name: "random-subdomain",
		Kind: Attack,
		Description: "NXDOMAIN flood with unique random labels; " +
			"invisible to candidate-share detection",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		victims, origins := pickVictims(env, rng, 1)
		victim, victimAS := victims[0], origins[0]
		zone := candidateName(env, rng)
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 16)
		return &Plan{
			Truth: []GroundTruth{{Victim: victim.As4(), Days: truthDays(env, 1, env.P.Days)}},
			From:  1,
			To:    env.P.Days,
			Emit: func(e *emitter) {
				for i := 0; i < 60; i++ {
					amp := amps[e.rng.Intn(len(amps))]
					label := fmt.Sprintf("r%08x.%s", e.rng.Uint32(), zone)
					t := e.dayTime()
					// Spoofed query src=victim, then the resolver's
					// NXDOMAIN back at the victim.
					e.query(t, victim, victimAS, amp, label, dnswire.TypeA, 244, 0)
					e.response(t.Add(simclock.Second), amp, victim, victimAS,
						label, dnswire.TypeA, dnswire.RCodeNXDomain, 0)
				}
			},
		}
	}
	return sc
}

// SlowDrip holds a victim at exactly MinPackets-1 candidate responses
// per day with a pure candidate share — tuned just under
// DefaultThresholds, so it is missed at defaults and found the moment
// MinPackets drops.
func SlowDrip() *Scenario {
	sc := &Scenario{
		Name: "slow-drip",
		Kind: Attack,
		Description: "9 pkts/day at share 1.0 — one packet under the " +
			"default MinPackets, every day",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		victims, origins := pickVictims(env, rng, 1)
		victim, victimAS := victims[0], origins[0]
		name := candidateName(env, rng)
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 12)
		return &Plan{
			Truth: []GroundTruth{{Victim: victim.As4(), Days: truthDays(env, 0, env.P.Days)}},
			From:  0,
			To:    env.P.Days,
			Emit: func(e *emitter) {
				for i := 0; i < 9; i++ {
					amp := amps[e.rng.Intn(len(amps))]
					e.response(e.dayTime(), amp, victim, victimAS, name,
						dnswire.TypeANY, dnswire.RCodeNoError, attackSize)
				}
			},
		}
	}
	return sc
}

// ResolverChurn rotates the reflector set and the spoofed ingress every
// day (booter-style infrastructure churn): each day a fresh amplifier
// sample fires 30 responses, and the spoofed queries arrive through a
// different member port. Per-day aggregation makes churn irrelevant —
// detected at defaults every attack day.
func ResolverChurn() *Scenario {
	sc := &Scenario{
		Name: "resolver-churn",
		Kind: Attack,
		Description: "30 pkts/day with the amplifier set and spoofed " +
			"ingress rotating daily",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		victims, origins := pickVictims(env, rng, 1)
		victim, victimAS := victims[0], origins[0]
		name := candidateName(env, rng)
		return &Plan{
			Truth: []GroundTruth{{Victim: victim.As4(), Days: truthDays(env, 1, env.P.Days)}},
			From:  1,
			To:    env.P.Days,
			Emit: func(e *emitter) {
				// Fresh reflector sample every day: the churn.
				amps := pickAmplifiers(env, e.rng, e.day, 10)
				ingress := amps[e.rng.Intn(len(amps))].ASN
				for i := 0; i < 30; i++ {
					amp := amps[e.rng.Intn(len(amps))]
					t := e.dayTime()
					if i%3 == 0 {
						// Spoofed query src=victim through the day's
						// ingress port; counts toward the victim's
						// candidate share too (request attribution).
						e.query(t, victim, victimAS, amp, name, dnswire.TypeANY, 241, ingress)
					}
					e.response(t.Add(simclock.Second), amp, victim, victimAS,
						name, dnswire.TypeANY, dnswire.RCodeNoError, attackSize)
				}
			},
		}
	}
	return sc
}

// FlashCrowd is a benign confounder: a legitimate popularity burst for
// a non-candidate name. Hundreds of clients suddenly receive response
// bursts — heavy client-days, but with zero candidate share, so a
// correct detector stays silent.
func FlashCrowd() *Scenario {
	sc := &Scenario{
		Name: "flash-crowd",
		Kind: Benign,
		Description: "popularity burst on a non-candidate name; " +
			"heavy clients, zero candidate share",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		const nClients = 80
		clients, origins := pickVictims(env, rng, nClients)
		name := env.C.DB.ProceduralName(rng.Intn(10_000))
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 16)
		return &Plan{
			// The crowd lasts two days mid-window.
			From: env.P.Days / 2,
			To:   env.P.Days/2 + 2,
			Emit: func(e *emitter) {
				for ci, cl := range clients {
					for i := 0; i < 15; i++ {
						srv := amps[e.rng.Intn(len(amps))]
						e.response(e.dayTime(), srv, cl, origins[ci], name,
							dnswire.TypeA, dnswire.RCodeNoError, 220)
					}
				}
			},
		}
	}
	return sc
}

// ScannerBurst is the adversarial benign confounder: a measurement
// scanner ANY-queries every misused candidate name in one day and
// receives the full large-RRset answers. Its client-day has a pure
// candidate share above MinPackets — a false positive at default
// thresholds, and the reason precision belongs in the eval table.
func ScannerBurst() *Scenario {
	sc := &Scenario{
		Name: "scanner-burst",
		Kind: Benign,
		Description: "one scanner ANY-queries all candidates in a day; " +
			"false positive at default thresholds",
	}
	sc.Prepare = func(env *Env, rng *rand.Rand) *Plan {
		scanners, origins := pickVictims(env, rng, 1)
		scanner, scannerAS := scanners[0], origins[0]
		amps := pickAmplifiers(env, rng, env.P.Window().Start, 8)
		names := env.C.DB.MisusedCandidates()
		return &Plan{
			From: env.P.Days / 2,
			To:   env.P.Days/2 + 1,
			Emit: func(e *emitter) {
				for _, name := range names {
					srv := amps[e.rng.Intn(len(amps))]
					t := e.dayTime()
					e.query(t, scanner, scannerAS, srv, name, dnswire.TypeANY, 52, 0)
					e.response(t.Add(simclock.Second), srv, scanner, scannerAS,
						name, dnswire.TypeANY, dnswire.RCodeNoError, attackSize)
				}
			},
		}
	}
	return sc
}

// candidateName draws one tracked misused name.
func candidateName(env *Env, rng *rand.Rand) string {
	cands := env.C.DB.MisusedCandidates()
	return cands[rng.Intn(len(cands))]
}
