package verify

import (
	"fmt"

	"tightcps/internal/switching"
	"tightcps/internal/ta"
)

// BuildNetwork constructs the paper's timed-automata network (Figs. 5–7)
// for the given application profiles: one application automaton per
// profile (Steady → ET_Wait → TT → ET_SAFE cycle with an Error location), a
// Policy automaton and a Sort automaton implementing the two-stage
// buffer0→buffer EDF admission, and the Scheduler automaton that processes
// requests at every sample tick (clock x with invariant x ≤ 1).
//
// The network is checked with the generic discrete-time engine in
// internal/ta; the packed verifier in this package implements the same
// per-sample semantics on far fewer states. On S2 (C6, C2) the network has
// 247,981 states and CheckNetwork takes ≈ 0.15 s, where Slot visits 10,201
// states in 2–5 ms (2-vCPU guest, go1.24.0). Cross-validation tests keep
// the two in agreement, apart from the two differences tamodel_test.go pins
// (T*w = 0, and the order of equal deadlines).
func BuildNetwork(profiles []*switching.Profile) (*ta.Network, error) {
	n := len(profiles)
	if n == 0 {
		return nil, fmt.Errorf("verify: empty application set")
	}

	net := &ta.Network{}

	// ---- Variables ------------------------------------------------------
	// Layout (all int): per-app WT, get, leave, DTm, DTp; then buffers.
	addVar := func(name string) int {
		id := len(net.VarNames)
		net.VarNames = append(net.VarNames, name)
		return id
	}
	vWT := make([]int, n)
	vGet := make([]int, n)
	vLeave := make([]int, n)
	vDTm := make([]int, n)
	vDTp := make([]int, n)
	for i := 0; i < n; i++ {
		vWT[i] = addVar(fmt.Sprintf("WT[%d]", i))
		vGet[i] = addVar(fmt.Sprintf("get[%d]", i))
		vLeave[i] = addVar(fmt.Sprintf("leave[%d]", i))
		vDTm[i] = addVar(fmt.Sprintf("DTm[%d]", i))
		vDTp[i] = addVar(fmt.Sprintf("DTp[%d]", i))
	}
	vDist := addVar("dist")     // id carried by a reqTT synchronisation
	vApp := addVar("app")       // current occupant
	vRun := addVar("run")       // slot busy flag
	vMoving := addVar("moving") // app id being transferred buffer0→buffer
	vPlace := addVar("place")   // Sort's insertion cursor
	vB0Len := addVar("b0len")
	vBLen := addVar("blen")
	vB0 := make([]int, n)
	vB := make([]int, n)
	for i := 0; i < n; i++ {
		vB0[i] = addVar(fmt.Sprintf("b0[%d]", i))
		vB[i] = addVar(fmt.Sprintf("buf[%d]", i))
	}

	// ---- Clocks ----------------------------------------------------------
	cTime := make([]int, n)
	for i := 0; i < n; i++ {
		cTime[i] = len(net.ClockNames)
		net.ClockNames = append(net.ClockNames, fmt.Sprintf("time[%d]", i))
		net.ClockMax = append(net.ClockMax, profiles[i].R)
	}
	cX := len(net.ClockNames)
	net.ClockNames = append(net.ClockNames, "x")
	net.ClockMax = append(net.ClockMax, 1)
	cCT := len(net.ClockNames)
	net.ClockNames = append(net.ClockNames, "cT")
	maxDw := 0
	for _, p := range profiles {
		if m := p.MaxTdwPlus(); m > maxDw {
			maxDw = m
		}
	}
	net.ClockMax = append(net.ClockMax, maxDw)

	// ---- Channels --------------------------------------------------------
	addChan := func(name string) int {
		id := len(net.ChanNames)
		net.ChanNames = append(net.ChanNames, name)
		return id
	}
	chReq := addChan("reqTT")
	chCall := addChan("callPolicy")
	chDone := addChan("donePolicy")
	chFind := addChan("findPlace")
	chFound := addChan("placeFound")
	chGet := make([]int, n)
	chLeave := make([]int, n)
	for i := 0; i < n; i++ {
		chGet[i] = addChan(fmt.Sprintf("getTT[%d]", i))
		chLeave[i] = addChan(fmt.Sprintf("leaveTT[%d]", i))
	}

	// ---- Application automata (Fig. 5) -----------------------------------
	for i := 0; i < n; i++ {
		i := i
		p := profiles[i]
		app := &ta.Automaton{Name: fmt.Sprintf("App%d", i)}
		const (
			lSteady = iota
			lWait
			lTT
			lSafe
			lError
		)
		app.Locations = []ta.Location{
			{Name: "Steady"},
			{Name: "ET_Wait"},
			{Name: "TT"},
			{Name: "ET_SAFE", Invariant: func(s *ta.State) bool { return s.Clocks[cTime[i]] <= p.R }},
			{Name: "Error"},
		}
		app.Init = lSteady
		app.Edges = []ta.Edge{
			// Disturbance: request the TT slot (observed by the scheduler at
			// the next tick through buffer0). dist carries the sender id.
			// Fig. 5 resets time[id] here; the Policy automaton resets it
			// again at the buffer0→buffer transfer, which marks the sample
			// at which the scheduler first observes the disturbance.
			{From: lSteady, To: lWait, Chan: chReq, Dir: ta.Emit, Label: "reqTT",
				Update: func(s *ta.State) {
					s.Vars[vDist] = i
					s.Clocks[cTime[i]] = 0
				}},
			// Deadline miss: waited past T*w without a grant.
			{From: lWait, To: lError, Label: "miss",
				Guard: func(s *ta.State) bool { return s.Clocks[cTime[i]] > p.TwStar }},
			// Grant: latch the dwell window for the observed wait. (The
			// paper guards this edge with get[id]==1; with per-application
			// channels the synchronisation itself identifies the grantee,
			// and UPPAAL evaluates guards before the emitter's update, so
			// the flag is mirrored in the update instead.)
			{From: lWait, To: lTT, Chan: chGet[i], Dir: ta.Recv, Label: "getTT",
				Update: func(s *ta.State) {
					dm, dp, ok := p.Lookup(s.Vars[vWT[i]])
					if !ok {
						dm, dp = 0, 0 // unreachable: grants respect T*w
					}
					s.Vars[vDTm[i]] = dm
					s.Vars[vDTp[i]] = dp
				}},
			// Eviction (preemption or Tdw+ expiry).
			{From: lTT, To: lSafe, Chan: chLeave[i], Dir: ta.Recv, Label: "leaveTT",
				Guard:  func(s *ta.State) bool { return s.Clocks[cTime[i]] < p.R },
				Update: func(s *ta.State) { s.Vars[vGet[i]] = 0 }},
			// Eviction when the inter-arrival window already elapsed while
			// holding the slot (r ≤ Tw+dwell): go straight to Steady.
			{From: lTT, To: lSteady, Chan: chLeave[i], Dir: ta.Recv, Label: "leaveTT(late)",
				Guard:  func(s *ta.State) bool { return s.Clocks[cTime[i]] >= p.R },
				Update: func(s *ta.State) { s.Vars[vGet[i]] = 0 }},
			// Quiescence over: eligible for the next disturbance.
			{From: lSafe, To: lSteady, Label: "steady",
				Guard: func(s *ta.State) bool { return s.Clocks[cTime[i]] == p.R }},
		}
		net.Automata = append(net.Automata, app)
	}

	// ---- Policy automaton (Fig. 6 top) ------------------------------------
	policy := &ta.Automaton{Name: "Policy"}
	const (
		polIdle = iota
		polLoop
		polWait
	)
	policy.Locations = []ta.Location{
		{Name: "Idle"},
		{Name: "Loop", Kind: ta.Committed},
		{Name: "WaitSort", Kind: ta.Committed},
	}
	policy.Init = polIdle
	policy.Edges = []ta.Edge{
		{From: polIdle, To: polLoop, Chan: chCall, Dir: ta.Recv, Label: "callPolicy"},
		// Take the newest buffer0 entry, reset its clocks, hand to Sort.
		{From: polLoop, To: polWait, Chan: chFind, Dir: ta.Emit, Label: "findPlace",
			Guard: func(s *ta.State) bool { return s.Vars[vB0Len] > 0 },
			Update: func(s *ta.State) {
				last := s.Vars[vB0Len] - 1
				id := s.Vars[vB0[last]]
				s.Vars[vMoving] = id
				s.Vars[vB0Len] = last // remove_buffer0()
				s.Clocks[cTime[id]] = 0
				s.Vars[vWT[id]] = 0
			}},
		{From: polWait, To: polLoop, Chan: chFound, Dir: ta.Recv, Label: "placeFound"},
		{From: polLoop, To: polIdle, Chan: chDone, Dir: ta.Emit, Label: "donePolicy",
			Guard: func(s *ta.State) bool { return s.Vars[vB0Len] == 0 }},
	}
	net.Automata = append(net.Automata, policy)

	// ---- Sort automaton (Fig. 6 bottom) -----------------------------------
	// EDF insertion: advance place past entries at least as urgent as the
	// moving application (deadline D = T*w − time since observation; the
	// moving application's clock was just reset, so its deadline is its
	// T*w). Ties keep FIFO order.
	deadline := func(s *ta.State, id int) int {
		return profiles[id].TwStar - s.Vars[vWT[id]]
	}
	sort := &ta.Automaton{Name: "Sort"}
	const (
		srtIdle = iota
		srtScan
	)
	sort.Locations = []ta.Location{
		{Name: "Idle"},
		{Name: "Scan", Kind: ta.Committed},
	}
	sort.Init = srtIdle
	sort.Edges = []ta.Edge{
		{From: srtIdle, To: srtScan, Chan: chFind, Dir: ta.Recv, Label: "findPlace",
			Update: func(s *ta.State) { s.Vars[vPlace] = 0 }},
		{From: srtScan, To: srtScan, Label: "advance",
			Guard: func(s *ta.State) bool {
				pl := s.Vars[vPlace]
				return pl < s.Vars[vBLen] &&
					deadline(s, s.Vars[vB[pl]]) <= deadline(s, s.Vars[vMoving])
			},
			Update: func(s *ta.State) { s.Vars[vPlace]++ }},
		{From: srtScan, To: srtIdle, Chan: chFound, Dir: ta.Emit, Label: "placeFound",
			Guard: func(s *ta.State) bool {
				pl := s.Vars[vPlace]
				return pl == s.Vars[vBLen] ||
					deadline(s, s.Vars[vB[pl]]) > deadline(s, s.Vars[vMoving])
			},
			Update: func(s *ta.State) {
				pl := s.Vars[vPlace]
				for j := s.Vars[vBLen]; j > pl; j-- {
					s.Vars[vB[j]] = s.Vars[vB[j-1]]
				}
				s.Vars[vB[pl]] = s.Vars[vMoving]
				s.Vars[vBLen]++
			}},
	}
	net.Automata = append(net.Automata, sort)

	// ---- Scheduler automaton (Fig. 7) --------------------------------------
	shiftBuffer := func(s *ta.State) {
		for j := 1; j < s.Vars[vBLen]; j++ {
			s.Vars[vB[j-1]] = s.Vars[vB[j]]
		}
		s.Vars[vBLen]--
	}
	schd := &ta.Automaton{Name: "Scheduler"}
	const (
		schMain    = iota
		schSorted  // after WT update, before/after policy
		schWaitPol // waiting for Policy/Sort to finish the transfer
		schSlot    // slot decision point
		schGranted // emitted getTT, cleanup
	)
	schd.Locations = []ta.Location{
		{Name: "Main", Invariant: func(s *ta.State) bool { return s.Clocks[cX] <= 1 }},
		{Name: "Sorted", Kind: ta.Committed},
		{Name: "WaitPolicy", Kind: ta.Committed},
		{Name: "Slot", Kind: ta.Committed},
		{Name: "Granted", Kind: ta.Committed},
	}
	schd.Init = schMain
	schd.Edges = []ta.Edge{
		// Asynchronous request registration into buffer0.
		{From: schMain, To: schMain, Chan: chReq, Dir: ta.Recv, Label: "reqTT",
			Update: func(s *ta.State) {
				s.Vars[vB0[s.Vars[vB0Len]]] = s.Vars[vDist]
				s.Vars[vB0Len]++
			}},
		// Sample tick: update wait counters of buffered (= ET_Wait) apps.
		{From: schMain, To: schSorted, Label: "tick",
			Guard: func(s *ta.State) bool { return s.Clocks[cX] == 1 },
			Update: func(s *ta.State) {
				for j := 0; j < s.Vars[vBLen]; j++ {
					s.Vars[vWT[s.Vars[vB[j]]]]++
				}
			}},
		// Transfer new requests through Policy/Sort when any are pending;
		// the scheduler parks in WaitPolicy until donePolicy so no slot
		// decision interleaves with the transfer.
		{From: schSorted, To: schWaitPol, Chan: chCall, Dir: ta.Emit, Label: "callPolicy",
			Guard: func(s *ta.State) bool { return s.Vars[vB0Len] > 0 }},
		{From: schSorted, To: schSlot, Label: "noNew",
			Guard: func(s *ta.State) bool { return s.Vars[vB0Len] == 0 }},
		{From: schWaitPol, To: schSlot, Chan: chDone, Dir: ta.Recv, Label: "donePolicy"},
	}
	// Slot decision edges (per-app where a channel is involved).
	// Forced vacate at cT == DT+.
	for i := 0; i < n; i++ {
		i := i
		schd.Edges = append(schd.Edges, ta.Edge{
			From: schSlot, To: schSlot, Chan: chLeave[i], Dir: ta.Emit, Label: "vacate",
			Guard: func(s *ta.State) bool {
				return s.Vars[vRun] == 1 && s.Vars[vApp] == i &&
					s.Clocks[cCT] >= s.Vars[vDTp[i]]
			},
			Update: func(s *ta.State) {
				s.Vars[vLeave[i]] = 1
				s.Vars[vRun] = 0
			},
		})
		// Preemption inside [DT−, DT+) when a transferred request waits.
		schd.Edges = append(schd.Edges, ta.Edge{
			From: schSlot, To: schSlot, Chan: chLeave[i], Dir: ta.Emit, Label: "preempt",
			Guard: func(s *ta.State) bool {
				return s.Vars[vRun] == 1 && s.Vars[vApp] == i &&
					s.Clocks[cCT] >= s.Vars[vDTm[i]] && s.Clocks[cCT] < s.Vars[vDTp[i]] &&
					s.Vars[vBLen] > 0
			},
			Update: func(s *ta.State) {
				s.Vars[vLeave[i]] = 1
				s.Vars[vRun] = 0
			},
		})
		// Grant to the buffer head.
		schd.Edges = append(schd.Edges, ta.Edge{
			From: schSlot, To: schGranted, Chan: chGet[i], Dir: ta.Emit, Label: "grant",
			Guard: func(s *ta.State) bool {
				return s.Vars[vRun] == 0 && s.Vars[vBLen] > 0 && s.Vars[vB[0]] == i
			},
			Update: func(s *ta.State) {
				s.Vars[vGet[i]] = 1
				s.Vars[vApp] = i
				s.Vars[vRun] = 1
			},
		})
	}
	schd.Edges = append(schd.Edges,
		// Cleanup after a grant: pop the buffer, restart the dwell clock,
		// and come back for a possible further action (none: slot busy).
		ta.Edge{From: schGranted, To: schSlot, Label: "remove",
			Update: func(s *ta.State) {
				shiftBuffer(s)
				s.Clocks[cCT] = 0
			}},
		// End of tick: slot busy in its non-preemptable window, or no
		// waiter, or nothing to do. Reset x for the next period.
		ta.Edge{From: schSlot, To: schMain, Label: "endTick",
			Guard: func(s *ta.State) bool {
				if s.Vars[vRun] == 1 {
					i := s.Vars[vApp]
					// No pending action: below DT+, and (below DT− or no waiter).
					if s.Clocks[cCT] >= s.Vars[vDTp[i]] {
						return false
					}
					if s.Clocks[cCT] >= s.Vars[vDTm[i]] && s.Vars[vBLen] > 0 {
						return false
					}
					return true
				}
				return s.Vars[vBLen] == 0
			},
			Update: func(s *ta.State) { s.Clocks[cX] = 0 }},
	)
	net.Automata = append(net.Automata, schd)

	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// CheckNetwork model-checks the Fig. 5–7 network for Error reachability
// using the generic engine: the slot set is schedulable iff no application
// automaton can reach its Error location (the paper's verification query).
func CheckNetwork(profiles []*switching.Profile, opt ta.CheckOptions) (ta.CheckResult, bool, error) {
	net, err := BuildNetwork(profiles)
	if err != nil {
		return ta.CheckResult{}, false, err
	}
	res, err := net.Reachable(net.AnyLocation("App", "Error"), opt)
	if err != nil {
		return res, false, err
	}
	return res, !res.Reachable, nil
}
