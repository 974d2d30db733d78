// Package cli is what the commands under cmd/ share: the backend flag
// group, which resolves -workers, -nodes, -connect, -ft and -ftdir to one
// verify.Config, and the exit rule (Exit). A command is a run(args,
// stdout, stderr) error over its own FlagSet; its main is cli.Main(name,
// run), and its tests call run in process.
package cli

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"tightcps/internal/dverify"
	"tightcps/internal/verify"
)

// dialAttempts is how often -connect dials a worker that is still booting:
// dverify.DialRetry waits 0.5, 1, 2 and 4 s between the attempts.
const dialAttempts = 5

// Main runs a command on the process's arguments and exits by the rule.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	os.Exit(Exit(name, run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// Exit applies the exit rule to what a run returned and returns the exit
// code: 0 for success and -h, 2 for a refused flag combination (a Usagef
// error, or a flag the FlagSet cannot parse), 1 for any other error. An
// error is printed once, as "name: error".
func Exit(name string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != reported {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError is a refused flag combination; reported is one the FlagSet
// has already printed, with the usage text.
type usageError string

const reported usageError = "refused flag"

func (u usageError) Error() string { return string(u) }

// Usagef returns a refused flag combination: the command exits 2 on it.
func Usagef(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// NewFlagSet returns a command's FlagSet: errors are returned, not fatal,
// and the FlagSet reports them and its usage text to stderr.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args with fs. A flag fs cannot parse is a refused flag the
// FlagSet has already reported; -h is flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return reported
}

// Unset refuses the flags of names that are set on fs, a flag being set
// when its value differs from its default: the error names the first one,
// followed by why.
func Unset(fs *flag.FlagSet, why string, names ...string) error {
	for _, n := range names {
		if f := fs.Lookup(n); f.Value.String() != f.DefValue {
			return Usagef("-%s %s", n, why)
		}
	}
	return nil
}

// Backend is the backend flag group: the lanes of a search and, for a
// distributed one, the cluster and its fault tolerance.
type Backend struct {
	workers, nodes int
	connect        string
	ft             bool
	ftdir          string
}

// BackendFlags registers the group's flags on fs.
func BackendFlags(fs *flag.FlagSet) *Backend {
	b := &Backend{}
	fs.IntVar(&b.workers, "workers", 0, "lanes of a search, on every node of a -nodes/-connect cluster too (0 = GOMAXPROCS, shared by the nodes of one process; 1 = sequential locally, one lane per node)")
	fs.IntVar(&b.nodes, "nodes", 0, "verify over K in-process loopback mesh nodes (0 = local search)")
	fs.StringVar(&b.connect, "connect", "", "verify over the verifyd workers at these comma-separated addresses (each dialed up to 5 times, waiting 0.5, 1, 2 and 4 s)")
	fs.BoolVar(&b.ft, "ft", false, "fault-tolerant distributed runs: survive worker deaths by shard reassignment and rollback (needs -nodes or -connect)")
	fs.StringVar(&b.ftdir, "ftdir", "", "checkpoint directory for -ft runs, visible to every worker (empty = recovery restarts the search)")
	return b
}

// Cluster is an opened backend. Config is what every verification of the
// run starts from: Workers, and on a cluster Distributed, the hook that
// carries -ft and -ftdir. Nodes, 0 for the local engine, salts the cache
// keys of budgeted verdicts (MaxStates is per node).
type Cluster struct {
	Config verify.Config
	Nodes  int
	Banner string // "distributed verification: …", "" for the local engine
	Width  string // what runs a search, for a stats line: "workers=N" or "nodes=K"
	ts     []dverify.Transport
}

// Open checks the group's flags together and opens the backend they name:
// the local engine, K loopback nodes, or the -connect workers, each dialed
// on the fixed retry schedule (logf, when non-nil, gets one line per failed
// attempt). The caller closes the cluster.
func (b *Backend) Open(logf func(format string, args ...any)) (*Cluster, error) {
	switch {
	case b.workers < 0:
		return nil, Usagef("-workers must be ≥ 0 (0 = GOMAXPROCS lanes, 1 = sequential), got %d", b.workers)
	case b.nodes < 0:
		return nil, Usagef("-nodes must be ≥ 0, got %d", b.nodes)
	case b.nodes > 0 && b.connect != "":
		return nil, Usagef("-nodes and -connect are mutually exclusive (one cluster per run)")
	case b.ft && b.nodes == 0 && b.connect == "":
		return nil, Usagef("-ft is a distributed-run flag; it needs -nodes or -connect")
	case b.ftdir != "" && !b.ft:
		return nil, Usagef("-ftdir holds the checkpoints of -ft runs; it needs -ft")
	}
	c := &Cluster{Config: verify.Config{Workers: b.workers}}
	switch {
	case b.connect != "":
		addrs := strings.Split(b.connect, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		ts, err := dverify.DialRetry(addrs, 0, dialAttempts, logf)
		if err != nil {
			return nil, err
		}
		c.ts = ts
		c.Banner = fmt.Sprintf("distributed verification: %d TCP workers (%s)", len(ts), strings.Join(addrs, ", "))
	case b.nodes > 0:
		c.ts = dverify.Loopback(b.nodes)
		c.Banner = fmt.Sprintf("distributed verification: %d loopback workers", b.nodes)
	default:
		c.Width = fmt.Sprintf("workers=%d", cmp.Or(b.workers, runtime.GOMAXPROCS(0)))
		return c, nil
	}
	c.Nodes = len(c.ts)
	c.Width = fmt.Sprintf("nodes=%d", c.Nodes)
	c.Config.Distributed = dverify.Runner(c.ts)
	if b.ft {
		c.Config.Distributed = dverify.FaultTolerantRunner(c.ts, b.ftdir)
		c.Banner += " (fault-tolerant)"
	}
	return c, nil
}

// Close closes the cluster's transports; a local backend has none.
func (c *Cluster) Close() error {
	return dverify.Close(c.ts)
}
