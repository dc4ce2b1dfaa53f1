package ecosystem

import (
	"math"
	"math/rand"
	"slices"

	"dnsamp/internal/simclock"
	"dnsamp/internal/stats"
	"dnsamp/internal/zonedb"
)

// The major attack entity's behaviour. The floats are typed float64,
// like every model constant, so that arithmetic on them rounds as it
// did on float64 fields.
const (
	// entityListSize is the paper-scale amplifier working set the
	// entity maintains per day (Fig. 12: a few thousand), scaled by
	// the campaign's Scale.
	entityListSize = 3600
	// baseEventsPerDay is the paper-scale event rate before the
	// mid-August escalation, scaled by the campaign's Scale.
	baseEventsPerDay float64 = 77
	// boostFactor multiplies the event rate after the escalation.
	boostFactor float64 = 8
	// dailyDropRate is the share of the working set replaced each day
	// (continuous churn handling).
	dailyDropRate float64 = 0.12
	// transitionDropRate is the share replaced on a name-transition day
	// ("periods with significantly more new amplifiers usually follow
	// name transitions", Fig. 12).
	transitionDropRate float64 = 0.45
	// sensorLeakProb is the per-event chance that honeypot sensors leak
	// into the list (the entity excludes honeypots almost perfectly:
	// visible in <= 0.6% of honeypot attacks, §6.1).
	sensorLeakProb float64 = 0.01
	// toleranceDays is how long the entity tolerates a deflated size
	// signal before moving to the next name.
	toleranceDays = 5
	// declineRatio triggers a transition when today's expected size
	// falls below this fraction of the tenure maximum.
	declineRatio float64 = 0.85
)

// Tenure is one contiguous span during which the entity misuses a name.
type Tenure struct {
	NameIdx    int
	Name       string
	Start, End simclock.Time // [Start, End)
	// OverlapNext marks tenures whose final OverlapDays overlap with
	// the next name ("few weeks in which two names were used
	// concurrently").
	OverlapDays int
}

// Entity is the major attack entity: rotation schedule, relocations, and
// daily amplifier-list evolution.
type Entity struct {
	Names   []string // rotation order (lexicographic .gov list)
	Tenures []Tenure
	// Reloc1 is the day the back-end moved into an IXP member's
	// customer cone (requests become visible, ~85% of traffic).
	Reloc1 simclock.Time
	// Reloc2 is the second relocation (another member's cone).
	Reloc2 simclock.Time
	// Ingress1, Ingress2 are the member ASNs carrying the entity's
	// spoofed requests in phases 1 and 2.
	Ingress1, Ingress2 uint32
	// BoostStart is when the event rate and victim count jump (~an
	// order of magnitude, Fig. 11) — coincides with Reloc1.
	BoostStart simclock.Time

	window simclock.Window
	rng    *rand.Rand
	pool   *Pool
	// listSize and baseRate are entityListSize and baseEventsPerDay at
	// the campaign's scale.
	listSize int
	baseRate float64

	// day state
	list     []int // current amplifier working set (pool ids)
	inList   map[int]bool
	newToday int
	fresh    []int // AdvanceTo's top-up candidates, reused day to day
	curDay   int
}

// NewEntity plans the entity's behaviour over window at the campaign's
// scale, which shrinks its working set and event rate. The rotation
// schedule is derived from the size signal the zones actually emit: the
// entity "observes < 4096 byte responses and then transitions to the
// next name" (§6.1).
func NewEntity(scale float64, db *zonedb.DB, pool *Pool, window simclock.Window, ingress1, ingress2 uint32, rng *rand.Rand) *Entity {
	e := &Entity{
		listSize: scaleInt(entityListSize, scale),
		baseRate: baseEventsPerDay * scale,
		Names:    db.EntityNames(),
		Ingress1: ingress1,
		Ingress2: ingress2,
		window:   window,
		rng:      rng,
		pool:     pool,
		inList:   make(map[int]bool),
		curDay:   -1,
	}
	e.planRotation(db)
	return e
}

// planRotation walks the window day by day applying the entity's
// decision rule to the expected ANY sizes.
func (e *Entity) planRotation(db *zonedb.DB) {
	idx := 0
	tenureStart := e.window.Start
	tenureMax := 0
	lowDays := 0
	overlapBudget := 1 // one concurrent-use episode, as in Fig. 8a

	e.window.EachDay(func(day simclock.Time) {
		if idx >= len(e.Names) {
			return
		}
		size := db.ANYSize(e.Names[idx], day)
		if size > tenureMax {
			tenureMax = size
		}
		if float64(size) < declineRatio*float64(tenureMax) {
			lowDays++
		} else {
			lowDays = 0
		}
		if lowDays >= toleranceDays && idx < len(e.Names)-1 {
			t := Tenure{NameIdx: idx, Name: e.Names[idx], Start: tenureStart, End: day.Add(simclock.Day)}
			if overlapBudget > 0 && idx == 2 {
				t.OverlapDays = 10
				overlapBudget--
			}
			e.Tenures = append(e.Tenures, t)
			idx++
			tenureStart = day.Add(simclock.Day)
			tenureMax = 0
			lowDays = 0
		}
	})
	e.Tenures = append(e.Tenures, Tenure{
		NameIdx: idx, Name: e.Names[idx], Start: tenureStart, End: e.window.End,
	})

	// Relocation 1 / escalation: the transition into the name active at
	// the end of the main period; relocation 2 two tenures later.
	e.Reloc1 = e.window.Start.Add(simclock.Days(76))
	e.Reloc2 = e.window.Start.Add(simclock.Days(133))
	for _, t := range e.Tenures {
		if t.Start.After(e.window.Start) && !t.Start.After(simclock.MeasurementEnd) {
			e.Reloc1 = t.Start
		}
	}
	for _, t := range e.Tenures {
		if t.Start.Sub(e.Reloc1) >= simclock.Days(50) {
			e.Reloc2 = t.Start
			break
		}
	}
	e.BoostStart = e.Reloc1
}

// NameAt returns the name(s) the entity misuses on a given day — two
// during a concurrent-use episode.
func (e *Entity) NameAt(day simclock.Time) []string {
	for i, t := range e.Tenures {
		if !day.Before(t.Start) && day.Before(t.End) {
			if t.OverlapDays > 0 && i+1 < len(e.Tenures) &&
				t.End.Sub(day) <= simclock.Days(t.OverlapDays) {
				return []string{t.Name, e.Tenures[i+1].Name}
			}
			return []string{t.Name}
		}
	}
	return nil
}

// Phase returns the relocation phase at t: 0 before Reloc1, 1 between,
// 2 after Reloc2.
func (e *Entity) Phase(t simclock.Time) int {
	switch {
	case t.Before(e.Reloc1):
		return 0
	case t.Before(e.Reloc2):
		return 1
	default:
		return 2
	}
}

// IngressAt returns the IXP member carrying the entity's requests at t
// (0 in phase 0, when requests do not cross the IXP).
func (e *Entity) IngressAt(t simclock.Time) uint32 {
	switch e.Phase(t) {
	case 1:
		return e.Ingress1
	case 2:
		return e.Ingress2
	default:
		return 0
	}
}

// EventRate returns the expected events per day at t.
func (e *Entity) EventRate(t simclock.Time) float64 {
	if t.Before(e.BoostStart) {
		return e.baseRate
	}
	return e.baseRate * boostFactor
}

// TXIDParity returns 0 for even-ID days, 1 for odd-ID days: the tool
// alternates every 48 hours ("a two-day rhythm, alternating between odd
// and even DNS transaction IDs every 48 hours", §6.1).
func (e *Entity) TXIDParity(t simclock.Time) int {
	return (t.Day() / 2) % 2
}

// isTransitionDay reports whether day starts a new tenure.
func (e *Entity) isTransitionDay(day simclock.Time) bool {
	for _, t := range e.Tenures[1:] {
		if t.Start == day.StartOfDay() {
			return true
		}
	}
	return false
}

// AdvanceTo brings the amplifier working set to the given day, applying
// churn-driven and transition-driven replacement. It returns the list
// and the number of amplifiers that are new today.
func (e *Entity) AdvanceTo(day simclock.Time) (list []int, newCount int) {
	d := day.Day()
	if d == e.curDay {
		return e.list, e.newToday
	}
	e.curDay = d
	e.newToday = 0

	drop := dailyDropRate
	if e.isTransitionDay(day) {
		drop = transitionDropRate
	}

	// Remove dead amplifiers and a random replacement share.
	kept := e.list[:0]
	for _, id := range e.list {
		a := e.pool.Get(id)
		if !a.AliveAt(day) || e.rng.Float64() < drop {
			delete(e.inList, id)
			continue
		}
		kept = append(kept, id)
	}
	e.list = kept

	// Top up with fresh, vetted amplifiers: the entity skips RFC 8482
	// endpoints (useless for ANY) — it evidently tests its reflectors.
	want := e.listSize - len(e.list)
	if want > 0 {
		e.fresh = e.pool.AppendAlive(e.fresh[:0], e.rng, day, want*2, func(a *Amplifier) bool {
			return !a.MinimalANY && !e.inList[a.ID]
		})
		for _, id := range e.fresh {
			if len(e.list) >= e.listSize {
				break
			}
			e.list = append(e.list, id)
			e.inList[id] = true
			e.newToday++
		}
	}
	slices.Sort(e.list)
	return e.list, e.newToday
}

// PickEventAmplifiers draws the per-event subset: "random subsets are
// selected per attack event" (§6.2). Sizes follow Fig. 13a: ~80% of
// events abuse 10–100 amplifiers.
func (e *Entity) PickEventAmplifiers(day simclock.Time) []int {
	list, _ := e.AdvanceTo(day)
	n := eventAmplifierCount(e.rng)
	if n > len(list) {
		n = len(list)
	}
	return stats.SampleWithoutReplacement(e.rng, list, n)
}

// eventAmplifierCount draws the per-event amplifier count. Ground-truth
// lists are sized so that the *sampled-visible* subsets land at the
// paper's Fig. 13a distribution (~80% of events show 10-100 amplifiers
// at the IXP; sampling and routing hide roughly a third of a list).
func eventAmplifierCount(rng *rand.Rand) int {
	u := rng.Float64()
	switch {
	case u < 0.02:
		return 5 + rng.Intn(5)
	case u < 0.82:
		return int(10 * pow10(rng.Float64()))
	default:
		return int(100 * pow10(rng.Float64()))
	}
}

// pow10 returns 10^x.
func pow10(x float64) float64 { return math.Pow(10, x) }

// ResponseEfficiency is the fraction of spoofed requests that produce a
// response after the escalation: the entity overdrives its reflectors,
// so the absolute response volume stays flat while requests soar (§6.2:
// "~85% of attack traffic consists of requests").
func (e *Entity) ResponseEfficiency(t simclock.Time) float64 {
	if t.Before(e.BoostStart) {
		return 0.95
	}
	return 0.18
}
