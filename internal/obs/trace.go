package obs

// Run traces: one obs.Trace follows a verification run end to end. The
// run ID is minted where the question enters the system — the admission
// service, or the CLI for direct runs — and rides verify.Config through
// the engine and dverify's Job onto every mesh worker, so one grep joins
// the front door's log line, the coordinator's epochs and each worker's
// session. The trace itself is coordinator-side: the engine writes one
// LevelSpan per entry of the run's level vector (verify.Result.Levels)
// and its per-link wire counters when the run ends, the mesh coordinator
// adds per-node totals, and the finished trace serializes as structured
// JSON — a -tracefile report whose per-level state counts sum exactly to
// the run's visited-state total.

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// runIDCounter disambiguates fallback run IDs minted in the same
// nanosecond when the random source is unavailable.
var runIDCounter struct {
	mu sync.Mutex
	n  uint64
}

// NewRunID mints a 16-hex-char run identifier.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		runIDCounter.mu.Lock()
		runIDCounter.n++
		n := runIDCounter.n
		runIDCounter.mu.Unlock()
		binary.LittleEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^n<<48)
	}
	return hex.EncodeToString(b[:])
}

// LevelSpan is the per-BFS-level record of a run: States counts the
// states whose BFS depth is exactly Level (every visited state lands in
// exactly one level, so the spans' States sum to the run total).
type LevelSpan struct {
	Level  int `json:"level"`
	States int `json:"states"`
}

// NodeSpan is one distributed worker's contribution.
type NodeSpan struct {
	Node     int `json:"node"`
	States   int `json:"states"`               // fresh states committed by this node
	MaxLevel int `json:"maxLevel"`             // deepest level it committed at
	Sent     int `json:"sentStates,omitempty"` // states shipped onto its mesh links
	Recv     int `json:"recvStates,omitempty"` // states drained from its mesh links
}

// LinkSpan is the wire volume of one directed worker↔worker link.
type LinkSpan struct {
	From   int `json:"from"`
	To     int `json:"to"`
	States int `json:"states"`
}

// FailoverSpan records one recovery of a distributed run — a restart of
// the search on the survivors — and which nodes the coordinator declared
// dead.
type FailoverSpan struct {
	Restart int   `json:"restart"` // 1 for the run's first restart
	Dead    []int `json:"dead"`    // the cluster's complete dead set after it
}

// WireSpan summarizes a distributed run's frontier-exchange volume: the
// states routed, each one 8-byte word on the wire.
type WireSpan struct {
	RoutedStates int `json:"routedStates"`
}

// Trace is the per-run record. Create with NewTrace, hand it to the
// engine via verify.Config, then Finish and serialize. All mutators are
// safe for concurrent use (distributed coordinators fold several nodes
// in); the exported fields are read directly only after the run.
type Trace struct {
	mu sync.Mutex

	RunID   string   `json:"runId"`
	Slot    []string `json:"slot,omitempty"`    // application names
	Backend string   `json:"backend,omitempty"` // "mesh" for a distributed run, empty for a local one
	Nodes   int      `json:"nodes,omitempty"`   // cluster size (0 = local)

	Schedulable bool   `json:"schedulable"`
	Violator    string `json:"violator,omitempty"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`

	Levels    []LevelSpan    `json:"levels"`
	Cluster   []NodeSpan     `json:"cluster,omitempty"`
	Links     []LinkSpan     `json:"links,omitempty"`
	Failovers []FailoverSpan `json:"failovers,omitempty"`
	Wire      *WireSpan      `json:"wire,omitempty"`
	// Epochs counts the coordinator's poll rounds on a mesh run.
	Epochs int `json:"epochs,omitempty"`

	Started    time.Time `json:"started"`
	ElapsedSec float64   `json:"elapsedSec"`
	// StatesPerSec is the verification-proper throughput (States over the
	// elapsed time Finish measured).
	StatesPerSec float64 `json:"statesPerSec"`
}

// NewTrace starts a trace under the given run ID ("" mints one).
func NewTrace(runID string) *Trace {
	if runID == "" {
		runID = NewRunID()
	}
	return &Trace{RunID: runID, Started: time.Now()}
}

// SetLevels writes one span per entry of a run's level vector: span k
// holds levels[k], the states first inserted at BFS level k.
func (t *Trace) SetLevels(levels []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Levels = t.Levels[:0]
	for k, n := range levels {
		t.Levels = append(t.Levels, LevelSpan{Level: k, States: n})
	}
	t.mu.Unlock()
}

// AddNode records one distributed worker's totals.
func (t *Trace) AddNode(node, states, maxLevel, sent, recv int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Cluster = append(t.Cluster, NodeSpan{Node: node, States: states, MaxLevel: maxLevel, Sent: sent, Recv: recv})
	t.mu.Unlock()
}

// AddLink records (accumulating by direction) one mesh link's volume.
func (t *Trace) AddLink(from, to, states int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	for i := range t.Links {
		if t.Links[i].From == from && t.Links[i].To == to {
			t.Links[i].States += states
			t.mu.Unlock()
			return
		}
	}
	t.Links = append(t.Links, LinkSpan{From: from, To: to, States: states})
	t.mu.Unlock()
}

// AddFailover records one recovery of a distributed run.
func (t *Trace) AddFailover(restart int, dead []int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Failovers = append(t.Failovers, FailoverSpan{
		Restart: restart, Dead: append([]int(nil), dead...),
	})
	t.mu.Unlock()
}

// SetWire records the run's aggregate exchange volume.
func (t *Trace) SetWire(routed int) {
	if t == nil || routed == 0 {
		return
	}
	t.mu.Lock()
	t.Wire = &WireSpan{RoutedStates: routed}
	t.mu.Unlock()
}

// SetBackend names the execution backend and cluster shape.
func (t *Trace) SetBackend(backend string, nodes int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Backend, t.Nodes = backend, nodes
	t.mu.Unlock()
}

// SetEpochs records the mesh coordinator's poll-round count.
func (t *Trace) SetEpochs(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Epochs = n
	t.mu.Unlock()
}

// SetResult records the verdict and totals and stamps the elapsed time
// and throughput. Call once, when the run completes.
func (t *Trace) SetResult(schedulable bool, states, transitions, depth int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Schedulable, t.States, t.Transitions, t.Depth = schedulable, states, transitions, depth
	t.ElapsedSec = time.Since(t.Started).Seconds()
	if t.ElapsedSec > 0 {
		t.StatesPerSec = float64(states) / t.ElapsedSec
	}
	t.mu.Unlock()
}

// SetSlot records the application names (and optionally the violator).
func (t *Trace) SetSlot(names []string, violator string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.Slot = append([]string(nil), names...)
	t.Violator = violator
	t.mu.Unlock()
}

// LevelStates sums the per-level state counts: the run's visited states
// (every visited state has exactly one BFS level).
func (t *Trace) LevelStates() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, l := range t.Levels {
		total += l.States
	}
	return total
}

// JSON serializes the trace (indented, trailing newline).
func (t *Trace) JSON() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the trace report to path.
func (t *Trace) WriteFile(path string) error {
	b, err := t.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
