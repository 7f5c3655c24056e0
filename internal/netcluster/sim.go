package netcluster

import (
	"bytes"
	"fmt"
	"sync"

	"knor/internal/simclock"
)

// SimGroup is the simulated counterpart of a TCP cluster: M
// SimTransports in one process, moving the same frames the real
// transport moves (identical bytes, so parity tests exercise the full
// encode/decode path) while charging an alpha-beta cost on one
// simulated clock per rank. A frame from rank a to rank b advances a's
// clock past the send (NetLatency + bytes/NetBandwidth) and stamps the
// frame with its arrival time; b's clock catches up to that stamp when
// the frame is received. This per-frame charge is the repo's one
// network cost model: the simulated knord/MPI/MLlib runs of
// internal/dist pay exactly the frames their collectives move.
type SimGroup struct {
	model simclock.CostModel

	mu     sync.Mutex // guards clocks
	clocks []simclock.Clock
	links  [][]chan simFrame

	closeOnce sync.Once
	closed    chan struct{}
}

type simFrame struct {
	f  *Frame
	at float64 // simulated arrival time
}

// simInboxDepth matches the TCP transport's inbox so the two
// implementations block under the same backlog conditions.
const simInboxDepth = inboxDepth

// NewSimGroup builds an m-rank simulated mesh charging model's network
// constants, every rank's clock at simulated time zero. Panics if m is
// not positive.
func NewSimGroup(m int, model simclock.CostModel) *SimGroup {
	if m <= 0 {
		panic("netcluster: SimGroup needs at least one rank")
	}
	g := &SimGroup{model: model, clocks: make([]simclock.Clock, m), closed: make(chan struct{})}
	g.links = make([][]chan simFrame, m)
	for from := range g.links {
		g.links[from] = make([]chan simFrame, m)
		for to := range g.links[from] {
			if to != from {
				g.links[from][to] = make(chan simFrame, simInboxDepth)
			}
		}
	}
	return g
}

// Transport returns rank r's endpoint.
func (g *SimGroup) Transport(r int) *SimTransport {
	if r < 0 || r >= len(g.clocks) {
		panic(fmt.Sprintf("netcluster: sim rank %d out of range 0..%d", r, len(g.clocks)-1))
	}
	return &SimTransport{group: g, rank: r}
}

// Close tears the whole group down; blocked Recvs on every rank fail
// with ErrClosed.
func (g *SimGroup) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return nil
}

// SimTransport is one rank's endpoint in a SimGroup. It implements
// Transport with goroutine-local channels instead of sockets; frames
// are encoded and re-decoded through the wire codec so the bytes on
// the (simulated) wire are exactly the bytes TCPTransport would move.
type SimTransport struct {
	group *SimGroup
	rank  int
}

// Rank implements Transport.
func (t *SimTransport) Rank() int { return t.rank }

// Size implements Transport.
func (t *SimTransport) Size() int { return len(t.group.clocks) }

// Clock returns this rank's simulated clock, which Send and Recv
// advance. A caller composing its own simulated work with the network
// (internal/dist's trainer) may advance it too, from the one goroutine
// that drives this rank and never concurrently with the rank's own
// Send or Recv.
func (t *SimTransport) Clock() *simclock.Clock { return &t.group.clocks[t.rank] }

// Send implements Transport: the frame round-trips through the codec,
// the sender's simulated clock advances past the alpha-beta send cost,
// and the frame is queued for the destination stamped with its arrival
// time.
func (t *SimTransport) Send(to int, f *Frame) error {
	g := t.group
	if to == t.rank || to < 0 || to >= t.Size() {
		return fmt.Errorf("netcluster: send to invalid rank %d (self %d of %d)", to, t.rank, t.Size())
	}
	buf, err := EncodeFrame(nil, f)
	if err != nil {
		return err
	}
	wire, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("netcluster: sim wire round-trip: %w", err)
	}
	telBytesTx.Add(uint64(len(buf)))
	telFrames.With(frameTypeName(f.Type)).Inc()

	g.mu.Lock()
	clock := &g.clocks[t.rank]
	at := clock.Now() + g.model.NetLatency + float64(len(buf))/g.model.NetBandwidth
	clock.AdvanceTo(at)
	g.mu.Unlock()

	select {
	case g.links[t.rank][to] <- simFrame{f: wire, at: at}:
		return nil
	case <-g.closed:
		return ErrClosed
	}
}

// Recv implements Transport: the receiver's simulated clock catches up
// to the frame's arrival time.
func (t *SimTransport) Recv(from int) (*Frame, error) {
	g := t.group
	if from == t.rank || from < 0 || from >= t.Size() {
		return nil, fmt.Errorf("netcluster: recv from invalid rank %d (self %d of %d)", from, t.rank, t.Size())
	}
	select {
	case sf := <-g.links[from][t.rank]:
		g.mu.Lock()
		g.clocks[t.rank].AdvanceTo(sf.at)
		g.mu.Unlock()
		return sf.f, nil
	case <-g.closed:
		return nil, ErrClosed
	}
}

// Close implements Transport. Closing any rank closes the group: a
// simulated "process" dying takes its links down exactly like a real
// socket teardown unblocks both ends.
func (t *SimTransport) Close() error { return t.group.Close() }
