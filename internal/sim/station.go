package sim

// Station is a FIFO server on the simulation clock: one job at a time, each
// starting when it arrives or when the job before it ends, whichever is
// later. The zero Station is idle. It only does the arithmetic; the caller
// schedules whatever happens at the returned time with At or At2.
type Station struct{ busy Time }

// Serve queues a job of the given service cost that arrives at now and
// returns the time it completes.
func (s *Station) Serve(now, cost Time) Time {
	s.busy = max(s.busy, now) + cost
	return s.busy
}
