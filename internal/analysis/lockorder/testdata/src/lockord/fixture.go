// Package lockord is the lockorder fixture: four named locks with a
// declared hierarchy, exercised in order, transitively, inverted,
// through helper calls, through an annotated interface, and across a
// goroutine boundary.
//
// lockorder: alpha_mu < beta_mu
// lockorder: beta_mu < gamma_mu
// lockorder: alpha_mu < delta_mu
package lockord

import "sealdb/internal/obs"

type sys struct {
	alpha obs.Mutex
	beta  obs.Mutex
	gamma obs.Mutex
	delta obs.Mutex
}

func newSys() *sys {
	s := &sys{}
	s.alpha.Profile("alpha_mu")
	s.beta.Profile("beta_mu")
	s.gamma.Profile("gamma_mu")
	s.delta.Profile("delta_mu")
	return s
}

// Good: the declared direct edge alpha < beta.
func (s *sys) inOrder() {
	s.alpha.Lock()
	s.beta.Lock()
	s.beta.Unlock()
	s.alpha.Unlock()
}

// Good: transitive closure covers alpha < beta < gamma.
func (s *sys) transitive() {
	s.alpha.Lock()
	s.gamma.Lock()
	s.gamma.Unlock()
	s.alpha.Unlock()
}

// Bad: inversion of a declared edge.
func (s *sys) inverted() {
	s.beta.Lock()
	s.alpha.Lock() // want "lock-order inversion: alpha_mu acquired while beta_mu held"
	s.alpha.Unlock()
	s.beta.Unlock()
}

// Bad: nesting nobody declared.
func (s *sys) undeclared() {
	s.gamma.Lock()
	s.delta.Lock() // want "undeclared nested lock acquisition: delta_mu acquired while gamma_mu held"
	s.delta.Unlock()
	s.gamma.Unlock()
}

// lockBeta is a helper whose acquisition the call-graph fixpoint must
// surface at call sites.
func (s *sys) lockBeta() {
	s.beta.Lock()
	s.beta.Unlock()
}

// Good: the helper's beta acquisition under alpha follows the order.
func (s *sys) nestedThroughCall() {
	s.alpha.Lock()
	s.lockBeta()
	s.alpha.Unlock()
}

// Bad: the helper's acquisition inverts the caller's held lock;
// reported at the call site.
func (s *sys) invertedThroughCall() {
	s.gamma.Lock()
	s.lockBeta() // want "lock-order inversion: beta_mu acquired while gamma_mu held"
	s.gamma.Unlock()
}

// hook is an opaque callback boundary: the analyzer cannot see fire's
// implementations, so the interface method carries the annotation.
type hook interface {
	// fire runs the callback.
	//
	// lockorder: acquires delta_mu
	fire()
}

// Good: alpha < delta is declared, and the annotation supplies the
// edge through the interface call.
func runHook(s *sys, h hook) {
	s.alpha.Lock()
	h.fire()
	s.alpha.Unlock()
}

// Bad: nothing orders beta against delta.
func runHookUnderBeta(s *sys, h hook) {
	s.beta.Lock()
	h.fire() // want "undeclared nested lock acquisition: delta_mu acquired while beta_mu held"
	s.beta.Unlock()
}

// Good: a reviewed exception via the marker directive.
func (s *sys) reviewedInversion() {
	s.beta.Lock()
	s.alpha.Lock() //sealvet:lockorder
	s.alpha.Unlock()
	s.beta.Unlock()
}

// Good: a goroutine starts with nothing held, so the spawner's gamma
// hold orders nothing inside the body.
func (s *sys) spawner() {
	s.gamma.Lock()
	go func() {
		s.alpha.Lock()
		s.beta.Lock()
		s.beta.Unlock()
		s.alpha.Unlock()
	}()
	s.gamma.Unlock()
}

// Good: an early-exit unlock means delta is no longer held at the
// gamma acquisition on the fallthrough path.
func (s *sys) earlyRelease(skip bool) {
	s.delta.Lock()
	if skip {
		s.delta.Unlock()
		return
	}
	s.delta.Unlock()
	s.gamma.Lock()
	s.gamma.Unlock()
}
