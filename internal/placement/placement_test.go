package placement

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func newTestService(t *testing.T) *Service {
	t.Helper()
	s := NewService()
	if err := s.CreateProvider("bb-0", 0, 400, 15<<16); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateProvider("bb-1", HANA, 400, 15<<16); err != nil {
		t.Fatal(err)
	}
	return s
}

// names lists the providers' names in order.
func names(ps []Provider) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}

func TestCreateProviderDefaults(t *testing.T) {
	s := NewService()
	if err := s.CreateProvider("x", GPU, 10, 20); err != nil {
		t.Fatal(err)
	}
	p, err := s.Provider("x")
	if err != nil {
		t.Fatal(err)
	}
	want := Provider{Name: "x", Index: 0, Traits: GPU, VCPUCap: 10, MemCapMB: 20}
	if p != want {
		t.Errorf("new provider = %+v, want %+v with no usage", p, want)
	}
	if err := s.CreateProvider("x", 0, 1, 1); !errors.Is(err, ErrDuplicateProvider) {
		t.Errorf("duplicate error = %v", err)
	}
	if err := s.CreateProvider("y", 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Provider("y"); p.Index != 1 {
		t.Errorf("second provider index = %d, want 1", p.Index)
	}
}

func TestCandidatesAndTraits(t *testing.T) {
	s := newTestService(t)
	ask := Ask{VCPU: 8, MemoryMB: 32 << 10}
	if got := names(s.Candidates(ask, nil)); fmt.Sprint(got) != "[bb-0 bb-1]" {
		t.Errorf("candidates = %v", got)
	}
	hana := ask
	hana.Required = HANA
	if got := names(s.Candidates(hana, nil)); fmt.Sprint(got) != "[bb-1]" {
		t.Errorf("HANA candidates = %v", got)
	}
	general := ask
	general.Forbidden = HANA | GPU
	if got := names(s.Candidates(general, nil)); fmt.Sprint(got) != "[bb-0]" {
		t.Errorf("general candidates = %v", got)
	}
	gpu := ask
	gpu.Required = GPU
	if got := s.Candidates(gpu, nil); len(got) != 0 {
		t.Errorf("GPU candidates = %v", names(got))
	}
	// Too large for any provider.
	if got := s.Candidates(Ask{VCPU: 401}, nil); len(got) != 0 {
		t.Errorf("oversized candidates = %v", names(got))
	}
	// Candidates appends to the caller's buffer.
	buf := make([]Provider, 1, 4)
	if got := s.Candidates(hana, buf); len(got) != 2 || got[1].Name != "bb-1" {
		t.Errorf("appended candidates = %v", names(got))
	}
}

// Providers created out of name order — as a capacity expansion registers
// blocks mid-run — still come back from Candidates and Providers in name
// order, each with its creation index.
func TestCandidatesNameOrderAcrossCreationOrder(t *testing.T) {
	s := NewService()
	for _, name := range []string{"bb-c", "bb-a", "bb-d", "bb-b"} {
		if err := s.CreateProvider(name, 0, 10, 10); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Candidates(Ask{VCPU: 1, MemoryMB: 1}, nil)
	if fmt.Sprint(names(got)) != "[bb-a bb-b bb-c bb-d]" {
		t.Errorf("candidates = %v, want name order", names(got))
	}
	wantIndex := map[string]int{"bb-c": 0, "bb-a": 1, "bb-d": 2, "bb-b": 3}
	for _, p := range got {
		if p.Index != wantIndex[p.Name] {
			t.Errorf("%s index = %d, want %d", p.Name, p.Index, wantIndex[p.Name])
		}
	}
	if fmt.Sprint(names(s.Providers())) != fmt.Sprint(names(got)) {
		t.Errorf("providers = %v, want name order", names(s.Providers()))
	}
}

func TestClaimReleaseLifecycle(t *testing.T) {
	s := newTestService(t)
	if err := s.Claim("vm-1", "bb-0", 100, 1<<18); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Provider("bb-0")
	if p.VCPUUsed != 100 || p.MemUsedMB != 1<<18 {
		t.Errorf("used = %d vCPU / %d MB", p.VCPUUsed, p.MemUsedMB)
	}
	if s.AllocationCount() != 1 {
		t.Error("allocation not recorded")
	}
	want := Allocation{Provider: "bb-0", VCPU: 100, MemoryMB: 1 << 18}
	if a, ok := s.AllocationOf("vm-1"); !ok || a != want {
		t.Errorf("allocation = %+v, %v; want %+v", a, ok, want)
	}

	if err := s.Claim("vm-1", "bb-0", 1, 1); !errors.Is(err, ErrDuplicateConsumer) {
		t.Errorf("duplicate consumer error = %v", err)
	}
	if err := s.Release("vm-1"); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Provider("bb-0"); p.VCPUUsed != 0 || p.MemUsedMB != 0 || s.AllocationCount() != 0 {
		t.Error("release did not free resources")
	}
	if _, ok := s.AllocationOf("vm-1"); ok {
		t.Error("released allocation still listed")
	}
	if err := s.Release("vm-1"); !errors.Is(err, ErrUnknownConsumer) {
		t.Errorf("double release error = %v", err)
	}
}

func TestClaimCapacityRace(t *testing.T) {
	s := newTestService(t)
	// bb-0 has 400 vCPUs; the 5th claim of 100 must fail even though a
	// stale candidate query would have returned bb-0.
	for i := 0; i < 4; i++ {
		if err := s.Claim(fmt.Sprintf("vm-%d", i), "bb-0", 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Claim("vm-4", "bb-0", 100, 0); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("over-capacity claim error = %v", err)
	}
	if st := s.Stats(); st.Claims != 4 || st.ClaimConflicts != 1 {
		t.Errorf("stats = %+v, want 4 claims and 1 conflict", st)
	}
}

func TestClaimErrors(t *testing.T) {
	s := newTestService(t)
	if err := s.Claim("vm", "nope", 1, 1); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("unknown provider error = %v", err)
	}
	if err := s.Claim("vm", "bb-0", 0, 15<<16+1); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("memory over capacity error = %v", err)
	}
}

func TestMove(t *testing.T) {
	s := newTestService(t)
	if err := s.Claim("vm-1", "bb-0", 50, 1<<16); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("vm-1", "bb-1"); err != nil {
		t.Fatal(err)
	}
	p0, _ := s.Provider("bb-0")
	p1, _ := s.Provider("bb-1")
	if p0.VCPUUsed != 0 || p0.MemUsedMB != 0 || p1.VCPUUsed != 50 || p1.MemUsedMB != 1<<16 {
		t.Errorf("move did not transfer usage: %+v / %+v", p0, p1)
	}
	if a, _ := s.AllocationOf("vm-1"); a.Provider != "bb-1" {
		t.Error("allocation record not updated")
	}
	// Self-move is a no-op.
	if err := s.Move("vm-1", "bb-1"); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Moves != 1 {
		t.Errorf("moves = %d, want 1", s.Stats().Moves)
	}
	// Unknown consumer / provider.
	if err := s.Move("ghost", "bb-0"); !errors.Is(err, ErrUnknownConsumer) {
		t.Errorf("ghost move error = %v", err)
	}
	if err := s.Move("vm-1", "nope"); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("bad target error = %v", err)
	}
}

func TestMoveCapacityCheck(t *testing.T) {
	s := newTestService(t)
	if err := s.Claim("big", "bb-1", 400, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Claim("vm-1", "bb-0", 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Move("vm-1", "bb-1"); !errors.Is(err, ErrCapacityExceeded) {
		t.Errorf("move to full provider error = %v", err)
	}
	// Failed move must not corrupt state.
	if p0, _ := s.Provider("bb-0"); p0.VCPUUsed != 10 {
		t.Errorf("failed move corrupted source usage: %d", p0.VCPUUsed)
	}
}

func TestSetCapacity(t *testing.T) {
	s := newTestService(t)
	if err := s.Claim("vm-1", "bb-0", 8, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCapacity("bb-0", 4, 100); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Provider("bb-0")
	if p.VCPUCap != 4 || p.MemCapMB != 100 || p.VCPUUsed != 8 {
		t.Errorf("after SetCapacity = %+v, want capacity 4/100 and usage kept", p)
	}
	// Over capacity: no candidate, even for an empty ask.
	if got := s.Candidates(Ask{}, nil); fmt.Sprint(names(got)) != "[bb-1]" {
		t.Errorf("candidates over a shrunken provider = %v", names(got))
	}
	if err := s.SetCapacity("nope", 1, 1); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("unknown provider error = %v", err)
	}
}

func TestProvidersSorted(t *testing.T) {
	s := newTestService(t)
	if got := names(s.Providers()); fmt.Sprint(got) != "[bb-0 bb-1]" {
		t.Errorf("providers = %v", got)
	}
	if _, err := s.Provider("ghost"); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("unknown lookup error = %v", err)
	}
}

// Concurrent claims must never oversubscribe capacity.
func TestConcurrentClaims(t *testing.T) {
	s := NewService()
	if err := s.CreateProvider("p", 0, 100, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	granted := make(chan string, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("vm-%d", i)
			if err := s.Claim(id, "p", 10, 0); err == nil {
				granted <- id
			}
		}(i)
	}
	wg.Wait()
	close(granted)
	n := 0
	for range granted {
		n++
	}
	if n != 10 {
		t.Errorf("granted %d claims of 10 vCPU on 100 capacity, want exactly 10", n)
	}
	if p, _ := s.Provider("p"); p.VCPUUsed != 100 {
		t.Errorf("used = %d, want 100", p.VCPUUsed)
	}
}

// Property: usage never goes negative or above capacity and always equals
// the sum of live allocations across random claim/release sequences.
func TestPropertyUsageInvariant(t *testing.T) {
	f := func(ops []bool) bool {
		s := NewService()
		if err := s.CreateProvider("p", 0, 100, 0); err != nil {
			return false
		}
		live := []string{}
		for i, claim := range ops {
			if claim {
				id := fmt.Sprintf("c-%d", i)
				if err := s.Claim(id, "p", 7, 0); err == nil {
					live = append(live, id)
				}
			} else if len(live) > 0 {
				if err := s.Release(live[len(live)-1]); err != nil {
					return false
				}
				live = live[:len(live)-1]
			}
			p, _ := s.Provider("p")
			if p.VCPUUsed < 0 || p.VCPUUsed > p.VCPUCap || p.VCPUUsed != int64(len(live))*7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
