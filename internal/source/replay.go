package source

import (
	"fmt"
	"slices"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ixp"
	"dnsamp/internal/names"
	"dnsamp/internal/simclock"
)

// Replay serves pre-recorded traffic: day batches captured from another
// source (Record), batches handed in directly (AddDay) or opened from a
// snapshot (OpenSnapshot), or a sampled capture sanitized as it is read
// (IngestSFlowLog, IngestPCAP). It is the first non-synthetic workload:
// anything that can produce sampled frames — a pcap file, an sFlow
// collector's log, a previous run's dump — feeds the detection pipeline
// through it.
//
// Populate a Replay fully before streaming from it: the Add methods are
// not safe concurrently with the readers, but a populated Replay is
// read-only and safe for any number of concurrent readers.
type Replay struct {
	tab     *names.Table
	days    []simclock.Time
	byDay   map[simclock.Time]*replayDay
	skipped int // datagrams IngestSFlowLog/IngestPCAP skipped
}

type replayDay struct {
	batch   *ixp.SampleBatch
	sensors []ecosystem.SensorFlow
	// owned marks batches built by ingestion or opened from a
	// snapshot: only those may be appended to on repeated ingestion —
	// AddDay batches are shared with their producer (Record does not
	// copy) and must stay immutable.
	owned bool
}

// NewReplay creates an empty replay source interning names into tab
// (a fresh table when nil).
func NewReplay(tab *names.Table) *Replay {
	if tab == nil {
		tab = names.NewTable()
	}
	return &Replay{tab: tab, byDay: make(map[simclock.Time]*replayDay)}
}

// Record materializes every day of src into a Replay: a snapshot that
// can be streamed any number of times without regenerating (batches are
// shared with src, not copied).
func Record(src Source) *Replay {
	r := NewReplay(src.Table())
	for _, day := range src.Days() {
		b, flows := src.DayFlows(day, nil)
		r.AddDay(day, b, flows)
	}
	return r
}

// AddDay stores one recorded day; a nil batch is an empty day. The
// batch must be in the replay's table, as every batch of a Source is in
// Source.Table(): any other is a wiring bug and panics. Adding the same
// day twice replaces it wholesale — batch, counters, and sensors.
func (r *Replay) AddDay(day simclock.Time, batch *ixp.SampleBatch, sensors []ecosystem.SensorFlow) {
	if batch != nil && batch.Table != r.tab {
		panic(fmt.Sprintf("source: AddDay batch in a foreign name table (%d names) handed to a replay over a %d-name table", batch.Table.Len(), r.tab.Len()))
	}
	day = day.StartOfDay()
	if _, ok := r.byDay[day]; !ok {
		r.insertDay(day)
	}
	r.byDay[day] = &replayDay{batch: batch, sensors: sensors}
}

// insertDay adds a day not yet recorded to the sorted day list.
func (r *Replay) insertDay(day simclock.Time) {
	i, _ := slices.BinarySearch(r.days, day)
	r.days = slices.Insert(r.days, i, day)
}

// ownedBatch returns the batch ingestion appends the frames captured
// at t to, opening an owned day on the day's first frame. A day whose
// batch came in through AddDay is refused.
func (r *Replay) ownedBatch(t simclock.Time) (*ixp.SampleBatch, error) {
	day := t.StartOfDay()
	rd, ok := r.byDay[day]
	if !ok {
		rd = &replayDay{batch: &ixp.SampleBatch{Table: r.tab}, owned: true}
		r.byDay[day] = rd
		r.insertDay(day)
	}
	if !rd.owned {
		return nil, fmt.Errorf("source: day %s holds a batch recorded via AddDay (shared with its producer); cannot ingest frames into it", day.Date())
	}
	return rd.batch, nil
}

// Table returns the replay's interning space.
func (r *Replay) Table() *names.Table { return r.tab }

// Days lists the recorded days in chronological order.
func (r *Replay) Days() []simclock.Time { return r.days }

// Day returns the recorded batch for day, nil when the day was never
// recorded.
func (r *Replay) Day(day simclock.Time) *ixp.SampleBatch {
	if rd, ok := r.byDay[day.StartOfDay()]; ok {
		return rd.batch
	}
	return nil
}

// DayFor returns the recorded batch for day whatever the clients: it is
// already materialized, so holding more rows than asked costs nothing.
// scratch is left untouched.
func (r *Replay) DayFor(day simclock.Time, _ [][4]byte, _ *ixp.SampleBatch) *ixp.SampleBatch {
	return r.Day(day)
}

// DayFlows returns the recorded batch for day, leaving scratch
// untouched, and a copy of its sensor flows.
func (r *Replay) DayFlows(day simclock.Time, _ *ixp.SampleBatch) (*ixp.SampleBatch, []ecosystem.SensorFlow) {
	rd, ok := r.byDay[day.StartOfDay()]
	if !ok {
		return nil, nil
	}
	return rd.batch, slices.Clone(rd.sensors)
}

// compile-time interface checks for both adapters.
var (
	_ Source = (*Synthetic)(nil)
	_ Source = (*Replay)(nil)
)
