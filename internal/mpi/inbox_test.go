package mpi

import (
	"errors"
	"testing"
	"time"
)

// --- Inbox matching layer -----------------------------------------
//
// Links exist only while they hold messages or posted receives, posted
// receives match in posting order, Cancel withdraws an unmatched
// receive, ChanCap still bounds a link, and tag reuse by in-flight
// collectives is a checked error.

func TestInboxEntriesRetireWhenDrained(t *testing.T) {
	rep, err := Run(3, func(c *Comm) {
		next, prev := (c.Rank()+1)%3, (c.Rank()+2)%3
		for tag := 0; tag < 500; tag++ {
			c.Send(next, tag, []float64{float64(tag)})
		}
		for tag := 499; tag >= 0; tag-- {
			if got := c.Recv(prev, tag); got[0] != float64(tag) {
				t.Errorf("tag %d: got %v", tag, got)
			}
		}
		for i := 0; i < 20; i++ {
			c.Allreduce([]float64{1})
			c.Iallgather([]float64{1}).Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gauges != (Gauges{}) {
		t.Fatalf("gauges after a drained run = %+v, want all zero", rep.Gauges)
	}
}

func TestInboxGaugesCountUnreceived(t *testing.T) {
	rep, err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 1, []float64{2})
			c.Send(1, 2, []float64{3})
		} else {
			c.Irecv(0, 9) // posted, never matched
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Gauges{InboxEntries: 3, QueuedEnvelopes: 3, PostedRecvs: 1}
	if rep.Gauges != want {
		t.Fatalf("gauges = %+v, want %+v", rep.Gauges, want)
	}
}

func TestInboxPostedReceivesMatchInOrder(t *testing.T) {
	_, err := Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			r1 := c.Irecv(0, 5)
			r2 := c.Irecv(0, 5)
			c.Barrier() // both posted before anything is sent
			got2, got1 := r2.Wait(), r1.Wait()
			if got1[0] != 1 || got2[0] != 2 {
				t.Errorf("posted receives matched out of order: first %v, second %v", got1, got2)
			}
			return
		}
		c.Barrier()
		c.Send(1, 5, []float64{1})
		c.Send(1, 5, []float64{2})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInboxCancelWithdrawsPostedReceive(t *testing.T) {
	rep, err := Run(2, func(c *Comm) {
		if c.Rank() == 1 {
			c.Irecv(0, 3).Cancel()
			c.Barrier()
			if got := c.Recv(0, 3); got[0] != 42 {
				t.Errorf("got %v, want the message the cancelled receive must not steal", got)
			}
			return
		}
		c.Barrier()
		c.Send(1, 3, []float64{42})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gauges != (Gauges{}) {
		t.Fatalf("gauges = %+v, want all zero", rep.Gauges)
	}
}

func TestInboxChanCapBoundsLink(t *testing.T) {
	// Three sends against a two-message link with nobody receiving: the
	// third blocks and times out.
	_, err := RunOpt(2, Options{Timeout: 100 * time.Millisecond, ChanCap: 2}, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 3; i++ {
				c.Send(1, 0, []float64{float64(i)})
			}
		}
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want a send timeout against the full link", err)
	}
	// A receiver draining the link unblocks the sender, in order.
	_, err = RunOpt(2, Options{Timeout: 2 * time.Second, ChanCap: 1}, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 50; i++ {
				c.Send(1, 0, []float64{float64(i)})
			}
			return
		}
		for i := 0; i < 50; i++ {
			if got := c.Recv(0, 0); got[0] != float64(i) {
				t.Errorf("message %d: got %v", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagAliasIsCheckedError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(2, func(c *Comm) {
			me := float64(c.Rank())
			// A full window of in-flight collectives is legal.
			reqs := make([]*Request, collTagWindow)
			for i := range reqs {
				reqs[i] = c.Iallgather([]float64{me + float64(i)})
			}
			for i, r := range reqs {
				got := r.Wait()
				if got[0] != float64(i) || got[1] != float64(i+1) {
					t.Errorf("rank %d request %d: got %v", c.Rank(), i, got)
				}
			}
			// One more than the window while all are held is not.
			for i := 0; i <= collTagWindow; i++ {
				c.Iallgather([]float64{me})
			}
			t.Errorf("rank %d: reservation %d past the window did not abort", c.Rank(), collTagWindow+1)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTagAlias) {
			t.Fatalf("err = %v, want ErrTagAlias", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tag aliasing hung the run")
	}
}

func TestTagAliasCountsCancelledBodies(t *testing.T) {
	// A cancelled Iallgather whose body is still running (rank 1 never
	// joins it) keeps its tag: a full window later the next reservation
	// must abort instead of reusing it.
	done := make(chan error, 1)
	go func() {
		_, err := RunOpt(2, Options{Timeout: 20 * time.Second}, func(c *Comm) {
			if c.Rank() == 1 {
				c.Recv(0, 1) // never sent; rank 0's abort ends the wait
				return
			}
			c.Iallgather([]float64{0}).Cancel()
			for i := 1; i <= collTagWindow; i++ {
				c.Iallgather([]float64{float64(i)})
			}
			t.Errorf("reservation %d reused the cancelled body's tag without aborting", collTagWindow)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTagAlias) {
			t.Fatalf("err = %v, want ErrTagAlias", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tag aliasing hung the run")
	}
}

func TestTagAliasReleasesFinishedCancelledBodies(t *testing.T) {
	// Once a cancelled collective's body has finished, its tags are
	// free again: two windows of Waited collectives go through.
	_, err := Run(2, func(c *Comm) {
		r := c.Iallgather([]float64{1})
		if c.Rank() == 0 {
			r.Cancel()
			for len(r.coll.res) == 0 {
				time.Sleep(time.Millisecond)
			}
		} else {
			r.Wait()
		}
		for i := 0; i < 2*collTagWindow; i++ {
			c.Iallgather([]float64{1}).Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvAckedOnArrival(t *testing.T) {
	// Under the reliable transport a posted receive acknowledges its
	// message when it arrives, not when it is Waited: a Wait delayed
	// well past the retransmit budget must see no retransmission and
	// fence nobody.
	net := &ReliableOptions{RTO: 50 * time.Millisecond, MaxRTO: 50 * time.Millisecond, Budget: 2}
	rep, err := RunOpt(2, Options{Timeout: 5 * time.Second, Reliable: net}, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
			c.Send(1, 4, []float64{7})
			return
		}
		r := c.Irecv(0, 4)
		c.Barrier()
		time.Sleep(400 * time.Millisecond) // the overlapped compute
		if got := r.Wait(); got[0] != 7 {
			t.Errorf("got %v, want 7", got)
		}
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if re, n := rep.Ranks[0].PerOp["p2p"].Retrans, sumNet(rep).Unreachable; re != 0 || n != 0 {
		t.Fatalf("p2p retransmits = %d, unreachable = %d; want both 0", re, n)
	}
}

func TestSoakBarrierLeavesNoEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const p, iters = 16, 10000
	rep, err := Run(p, func(c *Comm) {
		for i := 0; i < iters; i++ {
			c.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gauges.InboxEntries != 0 {
		t.Fatalf("%d live inbox entries after %d barriers, want 0", rep.Gauges.InboxEntries, iters)
	}
}
