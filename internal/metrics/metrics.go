// Package metrics is a dependency-free Prometheus-text-format metric
// registry for the live service mode: the /metrics endpoint renders a
// Registry, scrapers consume it, and nothing here imports anything
// beyond the standard library.
//
// The design is collect-at-scrape: a metric family is registered once
// with a collector callback, and every render invokes the callbacks to
// emit the current samples. That keeps the instrumented code free of
// double bookkeeping — the service already maintains per-source and
// per-stage state under its own locks, and the collectors just read it
// — while still supporting dynamic label sets (collectors appear as
// traffic arrives; each scrape emits whatever exists right now).
//
// Output is deterministic: families render in registration order (the
// order the operator guide documents), samples within a family in the
// order the collector emits them, and values in Go's shortest-exact
// float formatting. The exposition format is the Prometheus text
// format, version 0.0.4:
//
//	# HELP name help text
//	# TYPE name counter|gauge
//	name{label="value",...} 1234
package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Type is the metric family type in the exposition output.
type Type int

const (
	Counter Type = iota
	Gauge
)

// String returns the exposition-format type name.
func (t Type) String() string {
	if t == Counter {
		return "counter"
	}
	return "gauge"
}

// Emit publishes one sample of the family being collected. labels are
// alternating key, value pairs ("agent", "192.0.2.1", ...); an odd
// trailing key is ignored.
type Emit func(value float64, labels ...string)

// Collector produces the current samples of one family. It is invoked
// on every render, from the rendering goroutine; implementations must
// do their own locking around shared state, except for what the
// registry's prepare hook stored for this render (see NewRegistry).
type Collector func(emit Emit)

type family struct {
	name, help string
	typ        Type
	collect    Collector
}

// Registry is an ordered set of metric families. The zero value is not
// usable; construct with NewRegistry. Register and WriteText may be
// called concurrently; renders are serialized.
type Registry struct {
	mu       sync.Mutex
	prepare  func()
	families []family
	byName   map[string]bool
}

// NewRegistry returns an empty registry. prepare, when non-nil, runs
// once at the top of every render, before any collector and under the
// lock that serializes renders: families that read the same shared
// state have it snapshotted there once per scrape, and their collectors
// read the stored snapshot without further locking.
func NewRegistry(prepare func()) *Registry {
	return &Registry{prepare: prepare, byName: make(map[string]bool)}
}

// Register adds a metric family rendered via the collector callback.
// Family names must be unique within the registry and match the
// Prometheus name grammar; violations panic (registration is wiring
// code, and a bad name should fail at startup, not at scrape time).
func (r *Registry) Register(name, help string, typ Type, collect Collector) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid family name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic(fmt.Sprintf("metrics: duplicate family %q", name))
	}
	r.byName[name] = true
	r.families = append(r.families, family{name: name, help: help, typ: typ, collect: collect})
}

// WriteText renders every family in registration order in the
// Prometheus text exposition format. The text is written to w in one
// piece after the render, so a slow reader holds up no other scrape.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	r.render(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (r *Registry) render(b *strings.Builder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prepare != nil {
		r.prepare()
	}
	for _, f := range r.families {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
		f.collect(func(value float64, labels ...string) {
			b.WriteString(f.name)
			if len(labels) >= 2 {
				b.WriteByte('{')
				for i := 0; i+1 < len(labels); i += 2 {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(labels[i])
					b.WriteString(`="`)
					b.WriteString(escapeLabel(labels[i+1]))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(value, 'g', -1, 64))
			b.WriteByte('\n')
		})
	}
}

// validName checks the Prometheus metric name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// escapeHelp escapes backslashes and newlines (the HELP line escaping
// of the exposition format).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslashes, double quotes, and newlines (label
// value escaping).
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
