package zonedb

import (
	"fmt"
	"strings"
	"testing"
)

func TestProceduralNameFormat(t *testing.T) {
	db := New(Config{ProceduralNames: 100})
	for _, i := range []int{0, 1, 7, 99, 12345, 9999999, 10000000, 123456789} {
		tld := procTLDs[i%len(procTLDs)]
		want := fmt.Sprintf("host%07d.%s.", i, tld)
		if got := db.ProceduralName(i); got != want {
			t.Errorf("ProceduralName(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestProceduralSize holds Size to the names it counts: the summed
// name lengths over whole small ranges, and one name's length per step
// of n where the digit count grows.
func TestProceduralSize(t *testing.T) {
	db := New(Config{ProceduralNames: 100})
	for _, n := range []int{0, 1, 9, 10, 11, 1234, 20_000} {
		p, want := ProceduralRange(n), 0
		for i := range n {
			want += len(p.AppendName(nil, i))
		}
		if got := p.Size(); got != want {
			t.Errorf("n=%d: Size %d, names %d", n, got, want)
		}
	}
	for _, n := range []int{9_999_999, 10_000_000, 10_000_001, 99_999_999, 100_000_000, 100_000_001} {
		step := ProceduralRange(n+1).Size() - ProceduralRange(n).Size()
		if want := len(db.ProceduralName(n)); step != want {
			t.Errorf("Size(%d) - Size(%d) = %d, name %d is %d bytes", n+1, n, step, n, want)
		}
	}
}

// FuzzProceduralName holds the bulk-name parser to the formatter: a
// name of the range parses back to its index (and past the range to
// nothing), any bytes it accepts format back to themselves, and it
// refuses a name padded one digit more or one digit less, a name with
// the wrong TLD and a name one past the range's end.
func FuzzProceduralName(f *testing.F) {
	f.Add(uint32(0), uint32(100), "host0000000.com.")
	f.Add(uint32(7), uint32(200_000), "host0000007.co.")
	f.Add(uint32(12_345_678), uint32(20_000_000), "host012345678.io.")
	f.Add(uint32(9_999_999), uint32(10_000_000), "host9999999.fr.")
	f.Add(uint32(4_000_000_000), uint32(4_200_000_000), "HOST0000001.NET.")
	f.Fuzz(func(t *testing.T, i, n uint32, name string) {
		p, idx := ProceduralRange(int(n)), int(i)
		tld := procTLDs[idx%len(procTLDs)]
		formatted := string(p.AppendName(nil, idx))
		if want := fmt.Sprintf("host%07d.%s.", idx, tld); formatted != want {
			t.Fatalf("name %d = %q, want %q", idx, formatted, want)
		}
		if got, ok := p.ParseName(formatted); ok != (idx < int(n)) || ok && got != idx {
			t.Fatalf("ParseName(%q) over %d names = %d,%v", formatted, n, got, ok)
		}
		if j, ok := p.ParseName(name); ok && (j >= int(n) || string(p.AppendName(nil, j)) != name) {
			t.Fatalf("ParseName(%q) accepted %d, whose name is %q", name, j, p.AppendName(nil, j))
		}
		digits := formatted[len("host") : len(formatted)-len(tld)-2]
		refused := []string{
			"host0" + digits + "." + tld + ".",
			"host" + procTLDs[(idx+1)%len(procTLDs)] + "." + digits + ".",
			formatted[:len(formatted)-len(tld)-1] + procTLDs[(idx+1)%len(procTLDs)] + ".",
			strings.ToUpper(formatted),
			formatted[:len(formatted)-1],
		}
		if strings.HasPrefix(digits, "0") {
			refused = append(refused, "host"+digits[1:]+"."+tld+".")
		}
		for _, bad := range refused {
			if j, ok := p.ParseName(bad); ok {
				t.Fatalf("ParseName(%q) = %d, a variant of %q", bad, j, formatted)
			}
		}
		if j, ok := ProceduralRange(idx).ParseName(formatted); ok {
			t.Fatalf("ParseName(%q) = %d over a range that ends before it", formatted, j)
		}
	})
}
