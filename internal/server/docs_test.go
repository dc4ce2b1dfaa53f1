package server

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMetricsTableMatchesRegistry: the "Exported metrics" table in
// docs/OPERATIONS.md lists exactly the families the service registers,
// with the registered type and help text, so the documentation cannot
// drift from the /metrics page.
func TestMetricsTableMatchesRegistry(t *testing.T) {
	type family struct{ typ, help string }

	var page bytes.Buffer
	if err := NewService(Config{}).Registry().WriteText(&page); err != nil {
		t.Fatal(err)
	}
	registered := map[string]family{}
	var order []string
	for _, line := range strings.Split(page.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			registered[name] = family{help: help}
			order = append(order, name)
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			f := registered[name]
			f.typ = typ
			registered[name] = f
		}
	}
	if len(registered) < 40 {
		t.Fatalf("registry renders %d families; the walk is broken", len(registered))
	}

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Exported metrics\n")
	if !ok {
		t.Fatal(`docs/OPERATIONS.md has no "## Exported metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	row := regexp.MustCompile("(?m)^\\| `(ixpmon_[a-z_]+)` \\| ([a-z]+) \\| [^|]* \\| (.*) \\|$")
	documented := map[string]family{}
	for _, m := range row.FindAllStringSubmatch(section, -1) {
		if _, dup := documented[m[1]]; dup {
			t.Errorf("%s is listed twice in the table", m[1])
		}
		documented[m[1]] = family{typ: m[2], help: m[3]}
	}

	for _, name := range order {
		want := registered[name]
		got, ok := documented[name]
		switch {
		case !ok:
			t.Errorf("%s is registered but missing from the table; add: | `%s` | %s | … | %s |", name, name, want.typ, want.help)
		case got != want:
			t.Errorf("%s: table says %s, %q; registered as %s, %q", name, got.typ, got.help, want.typ, want.help)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("%s is in the table but not registered", name)
		}
	}
}
