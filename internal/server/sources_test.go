package server

import (
	"math/rand"
	"testing"

	"dnsamp/internal/ingest"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// dg builds a one-sample datagram with the given sequence number and
// returns its chunk head row, what account reads.
func dg(seq uint32, rate uint32, drops uint32) *ingest.Head {
	return head(&sflow.Datagram{
		Agent:    [4]byte{10, 0, 0, 1},
		SubAgent: 0,
		Seq:      seq,
		Samples: []sflow.FlowSample{{
			Seq: seq, Rate: rate, Drops: drops,
			FrameLen: 64, Header: []byte{0xde, 0xad},
		}},
	})
}

func head(d *sflow.Datagram) *ingest.Head {
	h := ingest.NewWriter().Append(d).Head()
	return &h
}

func TestAccountSequenceRules(t *testing.T) {
	src := &sourceState{}
	at := simclock.MeasurementStart

	// In-order start.
	src.account(dg(10, 16384, 0), at)
	src.account(dg(11, 16384, 0), at+1)
	st := src.stats
	if st.FirstSeq != 10 || st.LastSeq != 11 || st.Lost != 0 || st.OutOfOrder != 0 {
		t.Fatalf("in-order: %+v", st)
	}

	// Forward gap: 12 and 13 presumed lost.
	src.account(dg(14, 16384, 0), at+2)
	if st = src.stats; st.Lost != 2 || st.LastSeq != 14 {
		t.Fatalf("gap: %+v", st)
	}

	// One of them shows up late: reordering, not loss.
	src.account(dg(12, 16384, 0), at+3)
	if st = src.stats; st.Lost != 1 || st.OutOfOrder != 1 {
		t.Fatalf("late arrival: %+v", st)
	}

	// A duplicate of an already-seen datagram: out-of-order again, and
	// the loss estimate keeps decrementing while it is positive.
	src.account(dg(12, 16384, 0), at+4)
	src.account(dg(12, 16384, 0), at+5)
	if st = src.stats; st.Lost != 0 || st.OutOfOrder != 3 {
		t.Fatalf("duplicates: %+v", st)
	}

	// Resume in order from the highest seen.
	src.account(dg(15, 16384, 0), at+6)
	if st = src.stats; st.Lost != 0 || st.OutOfOrder != 3 || st.LastSeq != 15 {
		t.Fatalf("resume: %+v", st)
	}
	if st.Datagrams != 7 || st.Samples != 7 {
		t.Fatalf("counts: %+v", st)
	}
	if st.LastArrival != at+6 {
		t.Fatalf("last arrival = %v, want %v", st.LastArrival, at+6)
	}
}

func TestAccountRateAndAgentDrops(t *testing.T) {
	src := &sourceState{}
	at := simclock.MeasurementStart
	src.account(dg(1, 16384, 0), at)
	src.account(dg(2, 16384, 3), at)
	src.account(dg(3, 8192, 5), at) // rate switch
	src.account(dg(4, 8192, 4), at) // drops counter is cumulative: max wins

	st := src.stats
	if st.Rate != 8192 || st.RateChanges != 1 {
		t.Fatalf("rate: %+v", st)
	}
	if st.AgentDrops != 5 {
		t.Fatalf("agent drops = %d, want 5", st.AgentDrops)
	}
}

// TestAccountRateSummary: a datagram whose samples switch rates and
// carry zero rates moves the row exactly as folding its samples one by
// one would (the rule the head's summary stands in for).
func TestAccountRateSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rates := []uint32{0, 1, 8192, 16384}
	var got sourceState
	var want SourceStats
	for seq := uint32(1); seq <= 500; seq++ {
		d := &sflow.Datagram{Seq: seq}
		for range rng.Intn(6) {
			d.Samples = append(d.Samples, sflow.FlowSample{Rate: rates[rng.Intn(len(rates))], Drops: uint32(rng.Intn(50))})
		}
		got.account(head(d), 0)
		for _, fs := range d.Samples {
			if fs.Rate != 0 && fs.Rate != want.Rate {
				if want.Rate != 0 {
					want.RateChanges++
				}
				want.Rate = fs.Rate
			}
			want.AgentDrops = max(want.AgentDrops, fs.Drops)
		}
		if got.stats.Rate != want.Rate || got.stats.RateChanges != want.RateChanges || got.stats.AgentDrops != want.AgentDrops {
			t.Fatalf("datagram %d: rate %d changes %d drops %d, want %d %d %d", seq,
				got.stats.Rate, got.stats.RateChanges, got.stats.AgentDrops, want.Rate, want.RateChanges, want.AgentDrops)
		}
	}
	if want.RateChanges < 100 {
		t.Fatalf("only %d rate changes: the case proves little", want.RateChanges)
	}
}
