// Testdata for locksafe: blocking work under orchestra.System.mu and
// lock/unlock imbalance on early returns.
package orchestra

import (
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/obs"
)

type System struct {
	mu     sync.RWMutex
	spec   *core.Spec
	views  map[string]*core.View
	reg    *obs.Registry
	passes *obs.Counter
	tracer *obs.Tracer
}

func (s *System) compileUnderLock(owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := core.NewView(s.spec, owner) // want "NewView .* called while s.mu — the System lock — is held"
	if err != nil {
		return err
	}
	s.views[owner] = v
	return nil
}

func (s *System) evolveUnderLock(owner string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.views[owner].Evolve(s.spec) // want "Evolve .* called while s.mu"
}

func (s *System) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep \(sleeps\) called while s.mu`
	s.mu.Unlock()
}

// compileOutside is the PR 5 discipline: compile first, lock only to
// install.
func (s *System) compileOutside(owner string) error {
	v, err := core.NewView(s.spec, owner)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.views[owner] = v
	s.mu.Unlock()
	return nil
}

func (s *System) leaky(owner string) *core.View {
	s.mu.RLock()
	v, ok := s.views[owner]
	if !ok {
		return nil // want "return while s.mu is locked with no deferred unlock"
	}
	s.mu.RUnlock()
	return v
}

func (s *System) balanced(owner string) *core.View {
	s.mu.RLock()
	v, ok := s.views[owner]
	if !ok {
		s.mu.RUnlock()
		return nil
	}
	s.mu.RUnlock()
	return v
}

func (s *System) deferred(owner string) *core.View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views[owner]
}

// spawn: a goroutine does not run under the caller's critical section.
func (s *System) spawn() {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		time.Sleep(time.Millisecond)
	}()
}

// registerUnderLock: instrument registration takes the registry lock
// and must stay outside the System's critical sections (PR 7).
func (s *System) registerUnderLock(owner string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.reg.Counter("orchestra_exchange_passes_total", "passes", obs.L("view", owner)) // want "Counter .* called while s.mu"
	c.Inc()
}

// traceUnderLock: the trace ring buffer has its own mutex; publishing a
// pass trace under the System lock nests the two.
func (s *System) traceUnderLock(p *obs.PassTrace) {
	s.mu.Lock()
	s.tracer.Add(p) // want "Add .* called while s.mu"
	s.mu.Unlock()
}

// emitUnderLock is the PR 7 discipline: pre-resolved handles emit with
// atomics only, so emission inside the critical section is legal.
func (s *System) emitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.passes.Inc()
	s.passes.Add(2)
}

// registerOutside resolves the handle first, locks only to install.
func (s *System) registerOutside(owner string) {
	c := s.reg.Counter("orchestra_exchange_passes_total", "passes", obs.L("view", owner))
	s.mu.Lock()
	s.passes = c
	s.mu.Unlock()
}

// box is not a guarded type; blocking under its lock is someone else's
// policy call.
type box struct{ mu sync.Mutex }

func (b *box) sleepy() {
	b.mu.Lock()
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}
