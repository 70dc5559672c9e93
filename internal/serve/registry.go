package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/model"
	"repro/internal/modelio"
	"repro/internal/stream"
)

// Registry is the named, versioned model store behind the service. Every
// entry holds a compiled model — a single M5' tree or a bagged ensemble
// in flat-array form — under a (name, version) pair; requests address
// models as "name" (latest registered version) or "name@version".
type Registry struct {
	mu      sync.RWMutex
	entries map[string]map[string]*Entry // name -> version -> entry
	latest  map[string]string            // name -> most recently registered version
}

// servedModel is what every entry serves: a model with the batch
// kernel. Register admits nothing else, so no handler type-asserts.
type servedModel interface {
	model.Model
	model.BatchPredictor
}

// Entry is one registered model.
type Entry struct {
	Name    string
	Version string
	// Path is the source file, empty for models registered in-process.
	Path  string
	Model servedModel

	// schema resolves /v1/stream samples onto the model's layout; nil,
	// with schemaErr set, when the model cannot be streamed.
	schema    *stream.Schema
	schemaErr error
}

// Ref is the entry's canonical reference, "name@version".
func (e *Entry) Ref() string { return e.Name + "@" + e.Version }

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: map[string]map[string]*Entry{},
		latest:  map[string]string{},
	}
}

// Register adds a model under (name, version). Re-registering an existing
// (name, version) is an error — versions are immutable once served; ship
// a new version instead.
//
// Compilable models (the pointer-linked tree and ensemble) are compiled
// to their flat-array evaluators here, so the serving hot path always
// runs the compiled form. A model that does not compile to the batch
// kernel — including a rootless tree, a member-less ensemble, and a
// tree that fails the checks a decoded model file gets (see
// mtree.Tree.CompileModel) — is rejected with the compiler's reason and
// nothing is installed.
// Compilation never changes a response: compiled predictions,
// contributions and classifications are bit-identical to the
// original's.
func (r *Registry) Register(name, version string, m model.Model, path string) error {
	if name == "" || strings.ContainsAny(name, "@ \t\n") {
		return fmt.Errorf("serve: invalid model name %q", name)
	}
	if version == "" || strings.ContainsAny(version, "@ \t\n") {
		return fmt.Errorf("serve: invalid model version %q", version)
	}
	if m == nil {
		return fmt.Errorf("serve: nil model for %s@%s", name, version)
	}
	if c, ok := m.(model.Compilable); ok {
		cm, err := c.CompileModel()
		if err != nil {
			return fmt.Errorf("serve: model %s@%s (%T) does not compile: %w", name, version, m, err)
		}
		m = cm
	}
	sm, ok := m.(servedModel)
	if !ok {
		return fmt.Errorf("serve: model %s@%s (%T) does not compile to a batch evaluator", name, version, m)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.entries[name]
	if vs == nil {
		vs = map[string]*Entry{}
		r.entries[name] = vs
	}
	if _, dup := vs[version]; dup {
		return fmt.Errorf("serve: model %s@%s already registered", name, version)
	}
	e := &Entry{Name: name, Version: version, Path: path, Model: sm}
	e.schema, e.schemaErr = stream.NewSchema(sm.Describe())
	vs[version] = e
	r.latest[name] = version
	return nil
}

// LoadFile loads a persisted model (tree or ensemble) and registers it.
func (r *Registry) LoadFile(name, version, path string) error {
	m, err := modelio.LoadFile(path)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return r.Register(name, version, m, path)
}

// Get resolves a reference: "name" (latest registered version) or
// "name@version".
func (r *Registry) Get(ref string) (*Entry, error) {
	name, version, pinned := strings.Cut(ref, "@")
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.entries[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	if !pinned {
		version = r.latest[name]
	}
	e := vs[version]
	if e == nil {
		return nil, fmt.Errorf("serve: unknown version %q of model %q", version, name)
	}
	return e, nil
}

// Latest returns the most recently registered version of name, or ""
// if the name is unknown.
func (r *Registry) Latest(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.latest[name]
}

// Versions returns every registered version of name, sorted.
func (r *Registry) Versions(name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries[name]))
	for v := range r.entries[name] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered (name, version) entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, vs := range r.entries {
		n += len(vs)
	}
	return n
}

// ModelsByMachine counts the registered entries per machine provenance
// tag (model.Description.Machine); untagged models are counted under "".
func (r *Registry) ModelsByMachine() map[string]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := map[string]int{}
	for _, vs := range r.entries {
		for _, e := range vs {
			out[e.Model.Describe().Machine]++
		}
	}
	return out
}

// EntryInfo is the listing view of one entry, as served by GET /v1/models.
type EntryInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Latest  bool   `json:"latest"`
	Path    string `json:"path,omitempty"`
	model.Description
}

// List returns every entry's description, sorted by name then version,
// so the listing (and anything diffing it) is deterministic.
func (r *Registry) List() []EntryInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]EntryInfo, 0, 8)
	for name, vs := range r.entries {
		for version, e := range vs {
			out = append(out, EntryInfo{
				Name:        name,
				Version:     version,
				Latest:      r.latest[name] == version,
				Path:        e.Path,
				Description: e.Model.Describe(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}
