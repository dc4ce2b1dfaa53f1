package ecosystem

import (
	"io"
	"slices"

	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// WireStream is a run of days' sampled frames as one capture-time-ordered
// stream, the way a collector's log holds them (an sflow.RecordSource).
// It is built a day at a time: a day's records are stable-sorted after
// the ones carried over, those before the next midnight go out, and the
// rest (an event straddling midnight) wait for the next day. So it is
// the stable time sort of every day at once, holding one day.
type WireStream struct {
	day       func(simclock.Time) ([]TaggedRecord, error)
	next, end simclock.Time // the next day to generate, the first not to

	recs []TaggedRecord // generated and sorted, not yet handed out
	n    int            // recs[:n] lie before next: free to go out
}

// NewWireStream streams days [first, first+days) of day's records (a
// generator's wire frames, plus whatever a caller overlays), first
// being a midnight. day is called once per day, in order; an error it
// returns ends the stream.
func NewWireStream(first simclock.Time, days int, day func(simclock.Time) ([]TaggedRecord, error)) *WireStream {
	return &WireStream{day: day, next: first, end: first.Add(simclock.Days(days))}
}

// Next returns the next record and its ingress tag, or io.EOF after
// the last.
func (s *WireStream) Next() (sflow.Record, uint32, error) {
	for s.n == 0 {
		if s.next == s.end {
			if s.n = len(s.recs); s.n == 0 {
				return sflow.Record{}, 0, io.EOF
			}
			break // the last day's carry
		}
		recs, err := s.day(s.next)
		if err != nil {
			return sflow.Record{}, 0, err
		}
		s.recs = append(s.recs, recs...)
		slices.SortStableFunc(s.recs, func(a, b TaggedRecord) int { return int(a.Rec.Time.Sub(b.Rec.Time)) })
		s.next = s.next.Add(simclock.Day)
		for s.n < len(s.recs) && s.recs[s.n].Rec.Time.Before(s.next) {
			s.n++
		}
	}
	tr := s.recs[0]
	s.recs, s.n = s.recs[1:], s.n-1
	return tr.Rec, tr.Ingress, nil
}
