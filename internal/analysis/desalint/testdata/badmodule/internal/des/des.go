// Package des is a stub kernel for the bad-module fixture.
package des

// Time is a simulation timestamp.
type Time int64

// Timer is a generation-checked value handle.
type Timer struct {
	gen uint32
	at  Time
}

// Active reports whether the handle is live.
func (t Timer) Active() bool { return t.gen != 0 }
