package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// contendTrace runs n workers through a shared Semaphore and Mutex: each
// sleeps, acquires permits, locks, holds, then releases. Workers for which
// asTask reports true run as stackless tasks, the rest as goroutine
// processes. The returned trace records every grant and release with its
// instant and the engine's timer sequence counter.
func contendTrace(t *testing.T, n int, asTask func(i int) bool) []string {
	t.Helper()
	e := NewEngine()
	sem := NewSemaphore(e, "sem", 3)
	m := NewMutex(e, "m")
	var trace []string
	log := func(i int, what string) {
		trace = append(trace, fmt.Sprintf("w%d %s at %v seq=%d", i, what, e.Now(), e.Stats().Timers))
	}
	for i := 0; i < n; i++ {
		i := i
		offset := time.Duration(i*7%5+1) * 300 * time.Microsecond
		hold := time.Duration(i%4+1) * 250 * time.Microsecond
		permits := 3 - i%3
		if !asTask(i) {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(offset)
				sem.Acquire(p, permits)
				log(i, "sem")
				m.Lock(p)
				log(i, "lock")
				p.Sleep(hold)
				m.Unlock(p)
				sem.Release(p, permits)
				log(i, "release")
			})
			continue
		}
		state := 0
		e.SpawnTask(func() string { return fmt.Sprintf("w%d", i) }, func(p *Proc) {
			switch state {
			case 0:
				state = 1
				p.WakeAfter(offset)
				return
			case 1:
				state = 2
				if !sem.AcquireOrWait(p, permits) {
					return
				}
				fallthrough
			case 2:
				log(i, "sem")
				state = 3
				if !m.LockOrWait(p) {
					return
				}
				fallthrough
			case 3:
				log(i, "lock")
				state = 4
				p.WakeAfter(hold)
			case 4:
				m.Unlock(p)
				sem.Release(p, permits)
				log(i, "release")
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return append(trace, fmt.Sprintf("end %v timers=%d procs=%d", e.Now(), e.Stats().Timers, e.Stats().Procs))
}

// TestTaskFIFOMatchesGoroutines checks that stackless tasks queue in the
// Mutex and Semaphore FIFOs and the timer heap exactly where goroutine
// processes doing the same work would: the grant order, every instant and
// every timer sequence number are identical for any mix of the two kinds.
func TestTaskFIFOMatchesGoroutines(t *testing.T) {
	const n = 12
	want := contendTrace(t, n, func(int) bool { return false })
	for name, asTask := range map[string]func(int) bool{
		"all-tasks": func(int) bool { return true },
		"odd-tasks": func(i int) bool { return i%2 == 1 },
		"mod3":      func(i int) bool { return i%3 == 0 },
	} {
		got := contendTrace(t, n, asTask)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: trace differs from all-goroutine run\ngot:\n%s\nwant:\n%s",
				name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestTaskParkedForeverIsReported checks that a task left waiting on a mutex
// nobody releases counts as alive: the run ends in a deadlock whose report
// names the task and what it waits on.
func TestTaskParkedForeverIsReported(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "stuck")
	e.Spawn("holder", func(p *Proc) { m.Lock(p) }) // finishes holding m
	state := 0
	e.SpawnTask(func() string { return "waiter-task" }, func(p *Proc) {
		if state == 0 {
			state = 1
			m.LockOrWait(p)
		}
	})
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter-task (mutex stuck)" {
		t.Fatalf("blocked = %q, want the parked task with its label", dl.Blocked)
	}
}

// TestAbortRetiresParkedTasks checks that tearing a simulation down with
// tasks parked on every kind of wait — mutex, semaphore and timer-free
// deadlock alongside a parked goroutine process — returns from Run and
// leaks no goroutine.
func TestAbortRetiresParkedTasks(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	m := NewMutex(e, "m")
	sem := NewSemaphore(e, "sem", 0)
	never := NewTrigger(e, "never")
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		never.Wait(p)
	})
	for i := 0; i < 50; i++ {
		i := i
		parked := false
		e.SpawnTask(func() string { return fmt.Sprintf("t%d", i) }, func(p *Proc) {
			if parked {
				t.Errorf("task t%d resumed after abort", i)
				return
			}
			parked = true
			if i%2 == 0 {
				m.LockOrWait(p)
			} else {
				sem.AcquireOrWait(p, 1)
			}
		})
	}
	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		var dl *DeadlockError
		if !errors.As(err, &dl) || len(dl.Blocked) != 51 {
			t.Fatalf("err = %v, want a deadlock naming 51 waiters", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return with tasks parked")
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("%d goroutines after teardown, %d before", g, before)
	}
}

// TestTaskBlockingCallPanics checks that every blocking primitive refuses a
// stackless task — even when it would not have had to wait — so a misuse
// fails deterministically instead of only under contention.
func TestTaskBlockingCallPanics(t *testing.T) {
	for name, call := range map[string]func(e *Engine, p *Proc){
		"Sleep":             func(e *Engine, p *Proc) { p.Sleep(time.Millisecond) },
		"Yield":             func(e *Engine, p *Proc) { p.Yield() },
		"Mutex.Lock":        func(e *Engine, p *Proc) { NewMutex(e, "m").Lock(p) },
		"Semaphore.Acquire": func(e *Engine, p *Proc) { NewSemaphore(e, "s", 1).Acquire(p, 1) },
		"Trigger.Wait":      func(e *Engine, p *Proc) { NewTrigger(e, "t").Wait(p) },
		"Queue.Get":         func(e *Engine, p *Proc) { NewQueue[int](e, "q").Get(p) },
		"Link.Transfer":     func(e *Engine, p *Proc) { NewLink(e, "l", 1e9).Transfer(p, 8, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.SpawnTask(func() string { return "misuse" }, func(p *Proc) { call(e, p) })
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "stackless task \"misuse\"") {
					t.Fatalf("recovered %v, want a stackless-task panic", r)
				}
			}()
			_ = e.Run() // the task is the first runnable process: it steps on this goroutine
			t.Fatal("blocking call on a task did not panic")
		})
	}
}

// TestTaskNonBlockingCallOnGoroutinePanics checks the converse: the
// non-blocking waits are for tasks only.
func TestTaskNonBlockingCallOnGoroutinePanics(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "m")
	var got any
	e.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Millisecond)
		m.Unlock(p)
	})
	e.Spawn("misuse", func(p *Proc) {
		defer func() { got = recover() }()
		m.LockOrWait(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || !strings.Contains(fmt.Sprint(got), "goroutine process \"misuse\"") {
		t.Fatalf("recovered %v, want a goroutine-process panic", got)
	}
}
