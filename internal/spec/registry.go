package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the type of a declared parameter.
type Kind int

const (
	Int Kind = iota
	Float
	Bool
	String
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Param declares one typed parameter of a definition.
type Param struct {
	Name    string
	Kind    Kind
	Default string // textual default, parsed with the same rules as Spec values
	Help    string
}

// Meta is the registry-facing description of a definition: its spec name,
// one-line help, and declared parameters. Domain definition types
// (model.Definition, protocol.Definition) implement Definition by
// returning their Meta.
type Meta struct {
	Name   string
	Help   string
	Params []Param
}

// Definition is the constraint a Registry places on its entries.
type Definition interface {
	Meta() Meta
}

// Registry maps definition names to self-registered definitions of one
// domain. It is safe for concurrent use; registration normally runs from
// init functions.
type Registry[D Definition] struct {
	domain string // prefixes error and panic messages, e.g. "model"
	mu     sync.RWMutex
	defs   map[string]D
}

// NewRegistry returns an empty registry whose diagnostics identify the
// given domain ("model", "protocol", ...).
func NewRegistry[D Definition](domain string) *Registry[D] {
	return &Registry[D]{domain: domain, defs: map[string]D{}}
}

// Register adds a definition. It panics on duplicate names or malformed
// parameter declarations — registration runs from init functions, where
// failing loudly at program start is the correct behavior.
func (r *Registry[D]) Register(def D) {
	m := def.Meta()
	if m.Name == "" {
		panic(r.domain + ": Register needs a name")
	}
	seen := map[string]bool{}
	for _, p := range m.Params {
		if seen[p.Name] {
			panic(fmt.Sprintf("%s: %s declares parameter %q twice", r.domain, m.Name, p.Name))
		}
		seen[p.Name] = true
		if _, err := parseValue(p.Kind, p.Default); err != nil {
			panic(fmt.Sprintf("%s: %s parameter %q has invalid default %q: %v", r.domain, m.Name, p.Name, p.Default, err))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[m.Name]; dup {
		panic(r.domain + ": duplicate registration of " + m.Name)
	}
	r.defs[m.Name] = def
}

// Lookup returns the definition registered under name.
func (r *Registry[D]) Lookup(name string) (D, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	def, ok := r.defs[name]
	return def, ok
}

// Names returns the registered names, sorted.
func (r *Registry[D]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.defs))
	for name := range r.defs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Usage returns a multi-line listing of every registered definition and
// its parameters, for CLI help output.
func (r *Registry[D]) Usage() string {
	var b strings.Builder
	for _, name := range r.Names() {
		def, _ := r.Lookup(name)
		m := def.Meta()
		fmt.Fprintf(&b, "%s — %s\n", m.Name, m.Help)
		for _, p := range m.Params {
			fmt.Fprintf(&b, "    %-10s %-6s default %-12s %s\n", p.Name, p.Kind, p.Default, p.Help)
		}
	}
	return b.String()
}

// Resolve validates spec against the registered definition and returns the
// definition along with the fully-populated argument set: every declared
// parameter present, with the spec value when provided and the default
// otherwise.
func (r *Registry[D]) Resolve(spec Spec) (D, Args, error) {
	var zero D
	def, ok := r.Lookup(spec.Name)
	if !ok {
		return zero, Args{}, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			r.domain, r.domain, spec.Name, strings.Join(r.Names(), ", "))
	}
	m := def.Meta()
	args := Args{owner: r.domain + " " + m.Name, values: make(map[string]value, len(m.Params))}
	for _, p := range m.Params {
		text, provided := spec.Params[p.Name]
		if !provided {
			text = p.Default
		}
		v, err := parseValue(p.Kind, text)
		if err != nil {
			return zero, Args{}, fmt.Errorf("%s: %s parameter %q: %v", r.domain, m.Name, p.Name, err)
		}
		args.values[p.Name] = v
	}
	for name := range spec.Params {
		if _, ok := args.values[name]; !ok {
			return zero, Args{}, fmt.Errorf("%s: %s has no parameter %q", r.domain, m.Name, name)
		}
	}
	return def, args, nil
}

// Args holds a definition's resolved parameter values. The typed getters
// panic on undeclared names — that is a bug in the definition, not a user
// error (user errors are caught by Resolve).
type Args struct {
	owner  string // "<domain> <name>", for panic messages
	values map[string]value
}

type value struct {
	kind Kind
	i    int64
	f    float64
	b    bool
	s    string
}

func (a Args) get(name string, kind Kind) value {
	v, ok := a.values[name]
	if !ok || v.kind != kind {
		panic(fmt.Sprintf("%s reads undeclared %s parameter %q", a.owner, kind, name))
	}
	return v
}

// Int returns the named integer parameter.
func (a Args) Int(name string) int { return int(a.get(name, Int).i) }

// Float returns the named float parameter.
func (a Args) Float(name string) float64 { return a.get(name, Float).f }

// Bool returns the named bool parameter.
func (a Args) Bool(name string) bool { return a.get(name, Bool).b }

// String returns the named string parameter.
func (a Args) String(name string) string { return a.get(name, String).s }

func parseValue(kind Kind, text string) (value, error) {
	switch kind {
	case Int:
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			// A JSON number reaches a spec as %g text ("1e+06" for 10⁶),
			// so any text that is exactly an integer is one.
			f, ferr := strconv.ParseFloat(text, 64)
			if ferr != nil || f != math.Trunc(f) || math.Abs(f) >= 1<<63 {
				return value{}, fmt.Errorf("want an integer, got %q", text)
			}
			i = int64(f)
		}
		return value{kind: Int, i: i}, nil
	case Float:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return value{}, fmt.Errorf("want a finite number, got %q", text)
		}
		return value{kind: Float, f: f}, nil
	case Bool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return value{}, fmt.Errorf("want true/false, got %q", text)
		}
		return value{kind: Bool, b: b}, nil
	case String:
		return value{kind: String, s: text}, nil
	default:
		return value{}, fmt.Errorf("unknown parameter kind %v", kind)
	}
}
