// EASY backfilling (Lifka, "The ANL/IBM SP Scheduling System", JSSPP
// 1995): the queue head receives a reservation at the earliest time it
// could start given running jobs' requested ends; any later request may
// jump ahead if it can run immediately without delaying that
// reservation. The paper calls EASY "representative of algorithms
// running in deployed systems today" and uses it for all Section 3
// experiments unless stated otherwise.

package sched

func (c *Cluster) passEASY() {
	if c.cfg.Predict {
		c.predictNew()
	}
	now := c.sim.Now()

	// Start requests in arrival order while the head fits.
	i := 0
	for ; i < len(c.queue); i++ {
		r := c.queue[i]
		if r == nil || r.State != Pending {
			continue
		}
		if r.Nodes > c.free {
			break
		}
		c.start(r)
	}

	// Locate the blocked head.
	var head *Request
	for ; i < len(c.queue); i++ {
		if r := c.queue[i]; r != nil && r.State == Pending {
			head = r
			break
		}
	}
	if head == nil || c.free == 0 {
		return
	}

	// Reserve the head at its shadow time, then backfill requests
	// that fit right now for their full requested duration without
	// pushing the head reservation back.
	//
	// The pass profile's free capacity only grows with time — every
	// busy interval in it (running jobs, earlier backfills) starts at
	// now — so reserving the head introduces exactly one dip:
	// shadowFree nodes free just after shadow. A candidate therefore
	// backfills iff it fits the free nodes now (c.free, already
	// checked) and, when its requested window crosses shadow, also
	// fits shadowFree. That is two compares per candidate where a
	// per-candidate FindAnchor/AddBusy walk used to dominate passes on
	// deep queues; the start set and order are identical.
	//
	// The same test applied to a block's bounds (minimum Nodes and
	// Estimate) skips whole queueBlock-slot blocks in which no request
	// can start. The bound test must use the start test's exact float
	// expression, now+est > shadow: addition is monotone, so a block
	// minimum that crosses implies every member crosses, whereas a
	// rearranged form (est > shadow-now) rounds differently.
	prof := c.buildRunningProfile(now)
	shadow := prof.FindAnchor(now, head.Estimate, head.Nodes)
	shadowFree := prof.AvailAt(shadow) - head.Nodes
	c.backfilling = true
	for j := i + 1; j < len(c.queue) && c.free > 0; {
		end := min(j-j%queueBlock+queueBlock, len(c.queue))
		if b := c.bounds[j/queueBlock]; b.nodes > c.free || (b.nodes > shadowFree && now+b.est > shadow) {
			j = end
			continue
		}
		for ; j < end && c.free > 0; j++ {
			r := c.queue[j]
			if r == nil || r.State != Pending || r.Nodes > c.free {
				continue
			}
			if crosses := now+r.Estimate > shadow; !crosses || r.Nodes <= shadowFree {
				c.start(r)
				if crosses {
					shadowFree -= r.Nodes
				}
			}
		}
	}
	c.backfilling = false
}
