// Package faultinject is the repo's first-class fault-injection layer:
// a TCP proxy that sits between a shard coordinator and a worker (or any
// client/backend pair) and injects the faults that real deployments see —
// severed connections, delay, partitions, and bit corruption — below the
// HTTP layer, which is exactly how a worker death manifests against a
// persistent hijacked stream.
//
// Faults come from two sources that compose:
//
//   - Imperative controls (SetDown, SetDelay, KillConns, CorruptNext) for
//     tests that need a fault at a precise point in a query's lifetime.
//   - A seeded Schedule for chaos runs: every fault decision is a pure
//     function of (seed, connection index, chunk index), so an entire
//     chaos run is reproducible from the single seed printed on failure.
//
// The package deliberately has no dependency on testing: production
// tooling (a chaos sidecar) could link it as-is. Tests pair New with
// t.Cleanup(p.Close).
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"ucgraph/internal/rng"
)

// FaultKind enumerates the per-chunk fault decisions a Schedule makes.
type FaultKind uint8

const (
	// FaultNone forwards the chunk untouched.
	FaultNone FaultKind = iota
	// FaultKill severs the connection before forwarding the chunk.
	FaultKill
	// FaultDelay sleeps Schedule.Delay before forwarding the chunk.
	FaultDelay
	// FaultCorrupt flips one bit of the chunk before forwarding it.
	FaultCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultKill:
		return "kill"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("faultKind(%d)", uint8(k))
	}
}

// Fault is one scheduled decision: what to do to one chunk of one
// connection's backend->client byte stream.
type Fault struct {
	Kind FaultKind
	// Delay is the sleep applied when Kind == FaultDelay.
	Delay time.Duration
	// Bit is the bit offset (0-7) flipped within the chosen byte when
	// Kind == FaultCorrupt. The proxy flips it in the final byte of the
	// chunk so small frames are corrupted in their payload/trailer, not
	// their length header (a mangled length kills the whole stream, which
	// is a different — also covered — failure mode).
	Bit uint
}

// Schedule is a pure, seeded fault plan. The zero value injects nothing.
// Decisions are stateless hashes of (seed, conn, chunk): two proxies
// given the same seed produce byte-for-byte the same fault sequence
// regardless of goroutine interleaving, and a failing chaos run replays
// from its logged seed alone.
type Schedule struct {
	// Seed drives every probabilistic decision below.
	Seed uint64
	// KillEvery injects FaultKill with probability 1/KillEvery per chunk
	// (0 disables).
	KillEvery uint64
	// DelayEvery injects FaultDelay with probability 1/DelayEvery per
	// chunk (0 disables); the sleep is Delay.
	DelayEvery uint64
	// Delay is the sleep for scheduled delay faults.
	Delay time.Duration
	// CorruptEvery injects FaultCorrupt with probability 1/CorruptEvery
	// per chunk (0 disables).
	CorruptEvery uint64
	// PartitionEvery marks whole connections partitioned with probability
	// 1/PartitionEvery per connection (0 disables). A partitioned
	// connection accepts but forwards nothing in either direction — the
	// classic network partition, distinct from a kill in that the peer
	// sees silence, not a reset.
	PartitionEvery uint64
}

// streams within a connection get distinct decision domains so the
// backend->client chooser never correlates with the partition chooser.
const (
	domainChunk     = 0x9e3779b97f4a7c15
	domainPartition = 0xd1b54a32d192ed03
)

// decide hashes (seed, domain, conn, chunk) to a uniform uint64. rng.Mix64
// is the same finalizer the world sampler uses; statelessness is what
// makes schedules replayable.
func (s Schedule) decide(domain, conn, chunk uint64) uint64 {
	return rng.Mix64(s.Seed ^ rng.Mix64(domain^rng.Mix64(conn)^chunk*0x2545f4914f6cdd1d))
}

// Partitioned reports whether connection conn is scheduled as partitioned.
func (s Schedule) Partitioned(conn uint64) bool {
	if s.PartitionEvery == 0 {
		return false
	}
	return s.decide(domainPartition, conn, 0)%s.PartitionEvery == 0
}

// Chunk returns the fault decision for chunk i of connection conn's
// backend->client stream. Kill takes precedence over corrupt over delay
// when several fire on the same chunk.
func (s Schedule) Chunk(conn, i uint64) Fault {
	h := s.decide(domainChunk, conn, i)
	if s.KillEvery != 0 && h%s.KillEvery == 0 {
		return Fault{Kind: FaultKill}
	}
	// Reuse independent bit ranges of the same hash for the remaining
	// decisions; they are far apart enough to be uncorrelated under Mix64.
	if s.CorruptEvery != 0 && (h>>16)%s.CorruptEvery == 0 {
		return Fault{Kind: FaultCorrupt, Bit: uint(h>>8) & 7}
	}
	if s.DelayEvery != 0 && (h>>32)%s.DelayEvery == 0 {
		return Fault{Kind: FaultDelay, Delay: s.Delay}
	}
	return Fault{Kind: FaultNone}
}

// TestSeed returns the chaos seed for this run: $CHAOS_SEED when set
// (replaying a logged failure), otherwise a time-derived seed. Callers
// should log the returned value so any failure is replayable; logf
// receives a printf-style line for that purpose (pass t.Logf).
func TestSeed(logf func(format string, args ...any)) uint64 {
	seed := uint64(time.Now().UnixNano())
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		if v, err := strconv.ParseUint(env, 10, 64); err == nil {
			seed = v
		}
	}
	if logf != nil {
		logf("chaos seed %d (replay with CHAOS_SEED=%d)", seed, seed)
	}
	return seed
}
