package server

// Bounded execution queue with explicit backpressure. Simulations are
// the expensive resource the daemon guards: admission is a non-blocking
// enqueue onto a fixed-capacity channel drained by a fixed pool of
// worker goroutines, and a full queue is reported to the caller (who
// turns it into 429 + Retry-After) instead of being absorbed into
// unbounded goroutines or latency. The pool size is an execution knob
// only: results are byte-identical for any size.

import (
	"sync"
	"sync/atomic"
)

// queue is the bounded worker pool.
type queue struct {
	jobs chan func()
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	running atomic.Int64
}

// newQueue starts workers goroutines draining a capacity-bounded job
// channel.
func newQueue(workers, capacity int) *queue {
	q := &queue{jobs: make(chan func(), capacity)}
	for w := 0; w < workers; w++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for job := range q.jobs {
				q.running.Add(1)
				job()
				q.running.Add(-1)
			}
		}()
	}
	return q
}

// submit enqueues job without blocking. It reports false when the queue
// is full (backpressure) or the pool is shutting down.
func (q *queue) submit(job func()) bool {
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return false
	}
	select {
	case q.jobs <- job:
		return true
	default:
		return false
	}
}

// depth returns the number of jobs admitted but not yet started.
func (q *queue) depth() int { return len(q.jobs) }

// inflight returns the number of jobs currently executing.
func (q *queue) inflight() int { return int(q.running.Load()) }

// close drains the pool: no new submissions are admitted, queued jobs
// still run, and close returns once every worker has exited.
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}
