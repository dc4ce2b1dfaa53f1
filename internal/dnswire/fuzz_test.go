package dnswire

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics feeds random and mutated-valid byte strings to
// the parser: it must always return cleanly (an error or a partial
// result), never panic or loop — the capture point processes untrusted
// wire data.
func TestParseNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Parse panicked on %x: %v", data, r)
			}
		}()
		res, err := Parse(data)
		// Either outcome is fine; a success must carry a message.
		return err != nil || res.Msg != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseMutatedMessages flips bytes of valid messages — the parser
// must stay total and the question name, when decoded, must stay valid
// enough to canonicalize.
func TestParseMutatedMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := new(Encoder).Encode(NewQuery(7, "peacecorps.gov", TypeANY, 4096))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %x: %v", mut, r)
				}
			}()
			res, err := Parse(mut)
			if err == nil && res.Msg == nil {
				t.Fatal("nil message without error")
			}
		}()
	}
}

// TestParseTruncationSweep parses a large response at every possible
// truncation point: no panics, and once the question is readable the
// name must be stable.
func TestParseTruncationSweep(t *testing.T) {
	wire := new(Encoder).Encode(bigResponse())
	wantName := "nsf.gov."
	for cut := 0; cut <= len(wire); cut++ {
		res, err := Parse(wire[:cut])
		if err != nil {
			continue
		}
		if res.Msg.QName() != wantName {
			t.Fatalf("cut %d: qname %q", cut, res.Msg.QName())
		}
	}
	// The full message must parse completely.
	res, err := Parse(wire)
	if err != nil || !res.Complete {
		t.Fatal("full message must parse completely")
	}
}

// TestEncodeParseIdempotent re-encodes a parsed message and parses it
// again: the second round trip must agree with the first.
func TestEncodeParseIdempotent(t *testing.T) {
	wire1 := new(Encoder).Encode(bigResponse())
	res1, err := Parse(wire1)
	if err != nil || !res1.Complete {
		t.Fatal(err)
	}
	wire2 := new(Encoder).Encode(res1.Msg)
	res2, err := Parse(wire2)
	if err != nil || !res2.Complete {
		t.Fatal(err)
	}
	if len(res2.Msg.Answers) != len(res1.Msg.Answers) {
		t.Fatalf("answers %d vs %d", len(res2.Msg.Answers), len(res1.Msg.Answers))
	}
	for i := range res1.Msg.Answers {
		a, b := res1.Msg.Answers[i], res2.Msg.Answers[i]
		if a.Type != b.Type || a.Name != b.Name || a.TTL != b.TTL {
			t.Fatalf("answer %d differs: %+v vs %+v", i, a, b)
		}
		if a.Data.WireLen() != b.Data.WireLen() {
			t.Fatalf("answer %d rdata size differs", i)
		}
	}
}

// FuzzParse is the native coverage-guided fuzz target over the wire
// parser (CI runs a short -fuzztime smoke on every PR). It enforces the
// same totality invariants as the quick-check tests above: Parse must
// return cleanly on arbitrary input, a nil error implies a message, and
// re-encoding a parsed message must parse again.
func FuzzParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})
	f.Add(new(Encoder).Encode(NewQuery(0x1234, "doj.gov.", TypeANY, 4096)))
	f.Add(new(Encoder).Encode(bigResponse()))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Parse(data)
		if err != nil {
			return
		}
		if res.Msg == nil {
			t.Fatal("nil message without error")
		}
		if !res.Complete {
			return
		}
		// A completely parsed message must survive a re-encode round
		// trip.
		wire := new(Encoder).Encode(res.Msg)
		res2, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-encoded message failed to parse: %v", err)
		}
		if !res2.Complete {
			t.Fatal("re-encoded message parsed incompletely")
		}
	})
}
