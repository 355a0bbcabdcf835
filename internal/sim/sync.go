package sim

import "fmt"

// Mutex is a mutual-exclusion lock in virtual time with FIFO handoff:
// waiters acquire the lock in the order they requested it, which keeps
// simulations deterministic.
type Mutex struct {
	eng       *Engine
	label     string
	waitLabel string // precomputed park label, off the Lock hot path
	locked    bool
	waiters   ring[*Proc]
}

// NewMutex creates an unlocked virtual mutex.
func NewMutex(e *Engine, label string) *Mutex {
	return &Mutex{eng: e, label: label, waitLabel: "mutex " + label}
}

// Lock blocks process p until it holds the mutex.
func (m *Mutex) Lock(p *Proc) {
	p.mustBlock("Mutex.Lock")
	e := m.eng
	e.mu.Lock()
	if !m.locked {
		m.locked = true
		e.mu.Unlock()
		return
	}
	m.waiters.push(p)
	e.park(p, m.waitLabel)
	// Ownership was transferred to us by Unlock before we were woken.
	e.mu.Unlock()
}

// LockOrWait is Lock for a stackless task (see Engine.SpawnTask). It takes
// the mutex and reports true if it is free; otherwise it queues p in the
// same FIFO as Lock and reports false, and p's next step runs holding the
// mutex.
func (m *Mutex) LockOrWait(p *Proc) bool {
	e := m.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if !m.locked {
		m.locked = true
		return true
	}
	p.waitLocked(m.waitLabel)
	m.waiters.push(p)
	return false
}

// Unlock releases the mutex, handing it directly to the longest-waiting
// process if any. Unlocking an unheld mutex panics.
func (m *Mutex) Unlock(p *Proc) {
	e := m.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if !m.locked {
		panic(fmt.Sprintf("sim: unlock of unlocked mutex %q", m.label))
	}
	if m.waiters.len() > 0 {
		e.wakeLocked(m.waiters.pop()) // lock stays held, ownership transfers
		return
	}
	m.locked = false
}

// Semaphore is a counting semaphore in virtual time with FIFO wakeups.
type Semaphore struct {
	eng       *Engine
	label     string
	waitLabel string
	count     int
	waiters   ring[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore creates a semaphore holding n initial permits.
func NewSemaphore(e *Engine, label string, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore count")
	}
	return &Semaphore{eng: e, label: label, waitLabel: "semaphore " + label, count: n}
}

// Acquire blocks p until n permits are available and takes them. Waiters are
// served strictly in FIFO order (no barging), so a large request cannot be
// starved by a stream of small ones.
func (s *Semaphore) Acquire(p *Proc, n int) {
	p.mustBlock("Semaphore.Acquire")
	if n <= 0 {
		return
	}
	e := s.eng
	e.mu.Lock()
	if s.waiters.len() == 0 && s.count >= n {
		s.count -= n
		e.mu.Unlock()
		return
	}
	s.waiters.push(semWaiter{p: p, n: n})
	e.park(p, s.waitLabel)
	e.mu.Unlock()
}

// AcquireOrWait is Acquire for a stackless task (see Engine.SpawnTask). It
// takes n permits and reports true if the FIFO allows it now; otherwise it
// queues p in the same FIFO as Acquire and reports false, and p's next step
// runs holding the permits.
func (s *Semaphore) AcquireOrWait(p *Proc, n int) bool {
	if n <= 0 {
		return true
	}
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.waiters.len() == 0 && s.count >= n {
		s.count -= n
		return true
	}
	p.waitLocked(s.waitLabel)
	s.waiters.push(semWaiter{p: p, n: n})
	return false
}

// Release returns n permits and wakes as many FIFO waiters as can now be
// satisfied.
func (s *Semaphore) Release(p *Proc, n int) {
	if n <= 0 {
		return
	}
	e := s.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	s.count += n
	for s.waiters.len() > 0 && s.count >= s.waiters.peek().n {
		w := s.waiters.pop()
		s.count -= w.n
		e.wakeLocked(w.p)
	}
}

// WaitGroup counts outstanding activities in virtual time, like sync.WaitGroup.
type WaitGroup struct {
	eng   *Engine
	label string
	n     int
	done  *Trigger
}

// NewWaitGroup creates a WaitGroup with zero count.
func NewWaitGroup(e *Engine, label string) *WaitGroup {
	return &WaitGroup{eng: e, label: label}
}

// Add increments the count by delta (which may be negative). When the count
// reaches zero all current waiters resume.
func (w *WaitGroup) Add(delta int) {
	e := w.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 && w.done != nil {
		w.done.fireLocked(e.now, nil)
		w.done = nil
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count is zero.
func (w *WaitGroup) Wait(p *Proc) {
	e := w.eng
	e.mu.Lock()
	if w.n == 0 {
		e.mu.Unlock()
		return
	}
	if w.done == nil {
		w.done = NewTrigger(e, "waitgroup "+w.label)
	}
	t := w.done
	e.mu.Unlock()
	t.Wait(p)
}
