// Package placement models the OpenStack Placement API: resource-provider
// inventories and allocation records that the Nova scheduler consults before
// assigning a VM (Fig. 2, step 5).
//
// In the SAP deployment each vSphere cluster (building block) is one
// resource provider; Nova allocates against the cluster, not the individual
// hypervisor — the root cause of the intra-BB fragmentation the paper
// documents (Sec. 3.1).
package placement

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Traits is the set of placement traits a provider advertises, one bit each.
type Traits uint8

// Placement traits.
const (
	HANA Traits = 1 << iota
	GPU
	Reserved
)

// Provider is one resource provider: a building block's vCPU and memory
// capacity and the usage its allocations hold. The vCPU capacity already
// carries overcommit (esx's BBAlloc.VCPUCap).
type Provider struct {
	Name string
	// Index is the provider's creation order in its service (0, 1, ...).
	Index  int
	Traits Traits

	VCPUCap, MemCapMB   int64
	VCPUUsed, MemUsedMB int64
}

// fits reports whether the amounts fit the provider's free capacity.
func (p *Provider) fits(vcpu, memMB int64) bool {
	return p.VCPUCap-p.VCPUUsed >= vcpu && p.MemCapMB-p.MemUsedMB >= memMB
}

// Ask is one VM's resource and trait request: the provider must advertise
// every Required trait and none of the Forbidden ones.
type Ask struct {
	VCPU, MemoryMB      int64
	Required, Forbidden Traits
}

// Allocation records one consumer's resource hold on a provider.
type Allocation struct {
	Provider       string
	VCPU, MemoryMB int64
}

// Errors returned by the service.
var (
	ErrDuplicateProvider = errors.New("placement: duplicate provider")
	ErrUnknownProvider   = errors.New("placement: unknown provider")
	ErrUnknownConsumer   = errors.New("placement: unknown consumer")
	ErrDuplicateConsumer = errors.New("placement: consumer already has an allocation")
	ErrCapacityExceeded  = errors.New("placement: insufficient capacity")
)

// Service is the placement database: providers and allocations. It is safe
// for concurrent use; every read or write of usage holds mu.
type Service struct {
	mu          sync.Mutex
	byName      map[string]*Provider
	sorted      []*Provider // name order, the order Candidates returns
	allocations map[string]Allocation
	stats       Stats
}

// Stats counts placement-database operations since construction.
type Stats struct {
	// Claims is successful allocations; ClaimConflicts is claims rejected
	// for capacity or duplicate consumers (the scheduler's retry trigger).
	Claims         int64
	ClaimConflicts int64
	Moves          int64
	Releases       int64
}

// Stats returns a copy of the operation counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// NewService returns an empty placement service.
func NewService() *Service {
	return &Service{
		byName:      make(map[string]*Provider),
		allocations: make(map[string]Allocation),
	}
}

// CreateProvider registers a resource provider; its Index is the number of
// providers created before it.
func (s *Service) CreateProvider(name string, traits Traits, vcpuCap, memCapMB int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byName[name]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateProvider, name)
	}
	p := &Provider{Name: name, Index: len(s.byName), Traits: traits, VCPUCap: vcpuCap, MemCapMB: memCapMB}
	s.byName[name] = p
	i := sort.Search(len(s.sorted), func(i int) bool { return s.sorted[i].Name >= name })
	s.sorted = append(s.sorted, nil)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = p
	return nil
}

// Provider returns a copy of the named provider.
func (s *Service) Provider(name string) (Provider, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byName[name]
	if !ok {
		return Provider{}, fmt.Errorf("%w: %s", ErrUnknownProvider, name)
	}
	return *p, nil
}

// Providers returns a copy of every provider, in name order.
func (s *Service) Providers() []Provider {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Provider, len(s.sorted))
	for i, p := range s.sorted {
		out[i] = *p
	}
	return out
}

// SetCapacity replaces a provider's capacity, e.g. when nodes enter or
// leave maintenance. Usage is kept, so a shrunken provider may be over
// capacity until allocations are released.
func (s *Service) SetCapacity(provider string, vcpuCap, memCapMB int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.byName[provider]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProvider, provider)
	}
	p.VCPUCap, p.MemCapMB = vcpuCap, memCapMB
	return nil
}

// Candidates appends a copy of every provider that can satisfy the ask to
// out, in name order, under one acquisition of the service lock.
func (s *Service) Candidates(ask Ask, out []Provider) []Provider {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.sorted {
		if p.Traits&ask.Required == ask.Required && p.Traits&ask.Forbidden == 0 &&
			p.fits(ask.VCPU, ask.MemoryMB) {
			out = append(out, *p)
		}
	}
	return out
}

// Claim atomically allocates the amounts for the consumer on the provider.
// It fails if capacity was consumed since the candidate query — the race
// Nova handles with scheduling retries.
func (s *Service) Claim(consumer, provider string, vcpu, memMB int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.allocations[consumer]; ok {
		s.stats.ClaimConflicts++
		return fmt.Errorf("%w: %s", ErrDuplicateConsumer, consumer)
	}
	p, ok := s.byName[provider]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProvider, provider)
	}
	if !p.fits(vcpu, memMB) {
		s.stats.ClaimConflicts++
		return fmt.Errorf("%w: %s on %s", ErrCapacityExceeded, consumer, provider)
	}
	p.VCPUUsed += vcpu
	p.MemUsedMB += memMB
	s.allocations[consumer] = Allocation{Provider: provider, VCPU: vcpu, MemoryMB: memMB}
	s.stats.Claims++
	return nil
}

// Move re-points the consumer's allocation to another provider atomically
// (used for cross-BB rebalancing; intra-BB DRS moves do not touch
// placement).
func (s *Service) Move(consumer, newProvider string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.allocations[consumer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConsumer, consumer)
	}
	dst, ok := s.byName[newProvider]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProvider, newProvider)
	}
	if a.Provider == newProvider {
		return nil
	}
	if !dst.fits(a.VCPU, a.MemoryMB) {
		return fmt.Errorf("%w: move %s to %s", ErrCapacityExceeded, consumer, newProvider)
	}
	src := s.byName[a.Provider]
	src.VCPUUsed -= a.VCPU
	src.MemUsedMB -= a.MemoryMB
	dst.VCPUUsed += a.VCPU
	dst.MemUsedMB += a.MemoryMB
	a.Provider = newProvider
	s.allocations[consumer] = a
	s.stats.Moves++
	return nil
}

// Release frees the consumer's allocation.
func (s *Service) Release(consumer string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.allocations[consumer]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConsumer, consumer)
	}
	p := s.byName[a.Provider]
	p.VCPUUsed -= a.VCPU
	p.MemUsedMB -= a.MemoryMB
	delete(s.allocations, consumer)
	s.stats.Releases++
	return nil
}

// AllocationOf returns the consumer's allocation and whether it has one.
func (s *Service) AllocationOf(consumer string) (Allocation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.allocations[consumer]
	return a, ok
}

// AllocationCount reports the number of live allocations.
func (s *Service) AllocationCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.allocations)
}
