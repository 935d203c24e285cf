package smp

// Machine topology: cores grouped into cache/NUMA domains. The
// partitioned multiprocessor of this package treats every core as
// equidistant, which makes migrations free — but on real hardware a
// move across a NUMA boundary forfeits cache warmth and memory
// locality. A Topology gives the balancing policies the structure they
// need to price that in: which cores share a domain, and how far apart
// two cores are.
//
// The model is deliberately flat-hierarchical: a machine is a
// partition of its cores into domains (nodes), distance is 0 within a
// domain and 1 across. That is enough to express "prefer intra-node
// steals, charge for crossing" without committing to a particular
// interconnect; a deeper hierarchy can refine Distance later without
// touching its callers.

import "fmt"

// DefaultNodeCores is the default domain width: 8 consecutive cores
// per node, the shape of a typical commodity multi-socket part.
const DefaultNodeCores = 8

// Topology partitions a machine's cores into cache/NUMA domains.
// The zero value (no domains) means "unspecified" and behaves like a
// single all-encompassing domain.
type Topology struct {
	// Domains lists the core indices of each domain. Together the
	// domains must partition [0, cores): every core in exactly one
	// domain, no empty domains.
	Domains [][]int
}

// Flat returns the degenerate single-domain topology over n cores —
// the implicit shape of every machine before this layer existed.
func Flat(cores int) Topology {
	all := make([]int, cores)
	for i := range all {
		all[i] = i
	}
	return Topology{Domains: [][]int{all}}
}

// Uniform groups n cores into consecutive domains of perNode cores
// each (the last node takes the remainder). perNode <= 0 selects
// DefaultNodeCores; a perNode of n or more collapses to Flat.
func Uniform(cores, perNode int) Topology {
	if perNode <= 0 {
		perNode = DefaultNodeCores
	}
	if perNode >= cores {
		return Flat(cores)
	}
	var domains [][]int
	for lo := 0; lo < cores; lo += perNode {
		hi := lo + perNode
		if hi > cores {
			hi = cores
		}
		node := make([]int, 0, hi-lo)
		for c := lo; c < hi; c++ {
			node = append(node, c)
		}
		domains = append(domains, node)
	}
	return Topology{Domains: domains}
}

// Empty reports whether the topology is the unspecified zero value.
func (t Topology) Empty() bool { return len(t.Domains) == 0 }

// NumDomains returns the number of domains (1 for the zero value,
// which acts as a single domain).
func (t Topology) NumDomains() int {
	if t.Empty() {
		return 1
	}
	return len(t.Domains)
}

// Validate checks that the domains partition [0, cores): every core
// appears in exactly one domain and no domain is empty. The zero
// value is valid for any core count.
func (t Topology) Validate(cores int) error {
	if t.Empty() {
		return nil
	}
	seen := make([]bool, cores)
	for d, node := range t.Domains {
		if len(node) == 0 {
			return fmt.Errorf("smp: topology domain %d is empty", d)
		}
		for _, c := range node {
			if c < 0 || c >= cores {
				return fmt.Errorf("smp: topology domain %d lists core %d out of [0,%d)", d, c, cores)
			}
			if seen[c] {
				return fmt.Errorf("smp: topology lists core %d in more than one domain", c)
			}
			seen[c] = true
		}
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("smp: topology covers no domain for core %d", c)
		}
	}
	return nil
}

// DomainMap returns the per-core domain index over [0, cores): out[c]
// is the domain core c belongs to. Cores a (not yet validated)
// topology does not cover map to domain 0.
func (t Topology) DomainMap(cores int) []int {
	out := make([]int, cores)
	if t.Empty() {
		return out
	}
	for d, node := range t.Domains {
		for _, c := range node {
			if c >= 0 && c < cores {
				out[c] = d
			}
		}
	}
	return out
}

// DomainOf returns the domain index of the given core (0 for the zero
// value or an uncovered core).
func (t Topology) DomainOf(core int) int {
	for d, node := range t.Domains {
		for _, c := range node {
			if c == core {
				return d
			}
		}
	}
	return 0
}

// Distance returns the migration distance between two cores: 0 within
// a domain, 1 across domains. The zero value puts every core in one
// domain, so its distances are all 0.
func (t Topology) Distance(a, b int) int {
	if t.Empty() || t.DomainOf(a) == t.DomainOf(b) {
		return 0
	}
	return 1
}

// clone returns a deep copy, so a Machine's topology cannot be
// mutated through a slice the caller kept.
func (t Topology) clone() Topology {
	if t.Empty() {
		return Topology{}
	}
	out := Topology{Domains: make([][]int, len(t.Domains))}
	for d, node := range t.Domains {
		out.Domains[d] = append([]int(nil), node...)
	}
	return out
}

// SetTopology installs a domain grouping over the machine's cores,
// validated as a partition. Pass the zero value to reset to the flat
// single-domain default. Call it before the simulation runs; the
// topology is static machine structure, not something that changes
// under load.
func (m *Machine) SetTopology(t Topology) error {
	if err := t.Validate(len(m.cores)); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.topo = t.clone()
	m.domainOf = t.DomainMap(len(m.cores))
	return nil
}

// Topology returns a copy of the machine's domain grouping (the zero
// value when none was set: a single implicit domain).
func (m *Machine) Topology() Topology {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.topo.clone()
}

// DomainOf returns the domain index of core i (always 0 on a machine
// without an explicit topology).
func (m *Machine) DomainOf(i int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.domainAt(i)
}

// domainAt is DomainOf with m.mu held.
func (m *Machine) domainAt(i int) int {
	if i < 0 || i >= len(m.domainOf) {
		return 0
	}
	return m.domainOf[i]
}

// DomainMap returns a copy of the machine's cached per-core domain
// map — the cheap per-tick accessor for planners and collectors that
// only need core→domain, not the full Topology.
func (m *Machine) DomainMap() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.domainOf...)
}

// NumDomains returns the number of domains (1 without a topology).
func (m *Machine) NumDomains() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.topo.NumDomains()
}

// Distance returns the migration distance between two cores: 0 within
// a domain, 1 across.
func (m *Machine) Distance(a, b int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.domainAt(a) == m.domainAt(b) {
		return 0
	}
	return 1
}

// CrossNodeMigrations returns how many successful migrations crossed
// a domain boundary (always 0 on a machine without a topology).
func (m *Machine) CrossNodeMigrations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crossNode
}
