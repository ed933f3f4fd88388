// Package hwc models the processor's hardware performance counters.
//
// Like the UltraSPARC-III, the simulated chip has two counter registers
// (PIC0/PIC1), each programmable to count one event. A counter can be
// preloaded so that after a chosen number of events it overflows and
// raises an interrupt. The interrupt is imprecise: it is delivered some
// instructions after the triggering one (counter skid), with the PC of the
// next instruction to issue — exactly the problem the paper's apropos
// backtracking search exists to solve. DTLB miss overflows are precise.
package hwc

import (
	"fmt"
	"sort"
	"strings"

	"dsprof/internal/xrand"
)

// Event identifies a countable hardware event.
type Event uint8

// The counter events. Names follow the paper's collect(1) spellings.
const (
	EvNone     Event = iota
	EvCycles         // Cycle_cnt: processor cycles
	EvInstrs         // Instr_cnt: instructions completed
	EvICMiss         // IC_miss: instruction cache misses (modeled as always hitting)
	EvDCRdMiss       // dcrm: D$ read misses
	EvECRef          // ecref: E$ references
	EvECRdMiss       // ecrm: E$ read misses
	EvECStall        // ecstall: cycles stalled for E$ misses (counts cycles)
	EvDTLBMiss       // dtlbm: DTLB misses (precise)

	NumEvents
)

var evInfo = [NumEvents]struct {
	name   string
	desc   string
	short  string // report column header
	title  string // report row title
	cycles bool   // the counter counts cycles, not events
	memRel bool   // memory-related: apropos backtracking applies
}{
	EvNone:     {"none", "no event", "none", "no event", false, false},
	EvCycles:   {"cycles", "processor cycles", "Cycles", "Cycles", true, false},
	EvInstrs:   {"insts", "instructions completed", "Instrs", "Instructions", false, false},
	EvICMiss:   {"icm", "I$ misses", "icm", "I$ misses", false, false},
	EvDCRdMiss: {"dcrm", "D$ read misses", "D$ RdMs", "D$ Read Misses", false, true},
	EvECRef:    {"ecref", "E$ references", "E$ Refs", "E$ Refs", false, true},
	EvECRdMiss: {"ecrm", "E$ read misses", "E$ RdMs", "E$ Read Misses", false, true},
	EvECStall:  {"ecstall", "E$ stall cycles", "E$ Stall", "E$ Stall Cycles", true, true},
	EvDTLBMiss: {"dtlbm", "DTLB misses", "DTLB Ms", "DTLB Misses", false, true},
}

func (e Event) String() string {
	if e < NumEvents {
		return evInfo[e].name
	}
	return fmt.Sprintf("event?%d", uint8(e))
}

// Desc returns a human-readable description.
func (e Event) Desc() string {
	if e < NumEvents {
		return evInfo[e].desc
	}
	return "unknown"
}

// Short returns the event's report column header, e.g. "E$ Stall".
func (e Event) Short() string {
	if e < NumEvents {
		return evInfo[e].short
	}
	return e.String()
}

// Title returns the event's report row title, e.g. "E$ Stall Cycles".
func (e Event) Title() string {
	if e < NumEvents {
		return evInfo[e].title
	}
	return e.Desc()
}

// CountsCycles reports whether the counter value is in cycles (so the
// metric converts to seconds) rather than event counts.
func (e Event) CountsCycles() bool { return e < NumEvents && evInfo[e].cycles }

// MemoryRelated reports whether the event is caused by data memory
// reference instructions, i.e. whether apropos backtracking is meaningful.
func (e Event) MemoryRelated() bool { return e < NumEvents && evInfo[e].memRel }

// LoadsOnly reports whether only load instructions can raise the event
// (read misses); the backtracking search uses this to pick the
// instruction class to look for.
func (e Event) LoadsOnly() bool {
	return e == EvDCRdMiss || e == EvECRdMiss
}

// ParseEvent resolves a collect-style event name.
func ParseEvent(name string) (Event, error) {
	for e := Event(1); e < NumEvents; e++ {
		if evInfo[e].name == name {
			return e, nil
		}
	}
	return EvNone, fmt.Errorf("hwc: unknown counter %q (known: %s)", name, strings.Join(EventNames(), ", "))
}

// EventNames lists all selectable counter names, sorted.
func EventNames() []string {
	names := make([]string, 0, NumEvents-1)
	for e := Event(1); e < NumEvents; e++ {
		names = append(names, evInfo[e].name)
	}
	sort.Strings(names)
	return names
}

// Preset overflow intervals. The paper: intervals "are chosen as prime
// numbers, to reduce the probability of correlations in the profiles",
// with on/high/low presets. Event counters get event-count intervals;
// cycle counters get cycle intervals.
var presets = map[string]struct{ events, cycles uint64 }{
	"on":   {100003, 9000011},   // ~10 ms of cycles at 900 MHz
	"high": {10007, 900001},     // ~1 ms
	"low":  {1000003, 90000049}, // ~100 ms
}

// ParseInterval resolves an overflow interval spec: "on", "high", "low"
// or a positive integer.
func ParseInterval(spec string, ev Event) (uint64, error) {
	if p, ok := presets[spec]; ok {
		if ev.CountsCycles() {
			return p.cycles, nil
		}
		return p.events, nil
	}
	var n uint64
	if _, err := fmt.Sscanf(spec, "%d", &n); err != nil || n == 0 {
		return 0, fmt.Errorf("hwc: bad overflow interval %q", spec)
	}
	return n, nil
}

// Counter is one PIC register programmed to count an event.
type Counter struct {
	Event    Event
	Interval uint64 // overflow after this many events/cycles
	Total    uint64 // cumulative count since arming
	next     uint64 // count at which the next overflow fires
}

// NewCounter arms a counter.
func NewCounter(ev Event, interval uint64) *Counter {
	return &Counter{Event: ev, Interval: interval, next: interval}
}

// Add accumulates n events and reports how many overflows fired.
func (c *Counter) Add(n uint64) int {
	c.Total += n
	over := 0
	for c.Total >= c.next {
		over++
		c.next += c.Interval
	}
	return over
}

// Remaining returns how many further events the counter accepts before
// its next overflow fires. The Add invariant (Total < next between
// calls) keeps it >= 1, so an engine can batch Remaining()-1 events with
// no overflow and still attribute the overflow to the exact triggering
// event on the next single-event Add.
func (c *Counter) Remaining() uint64 { return c.next - c.Total }

// Skid models counter-overflow interrupt skid: how many further
// instructions retire before the trap is delivered. Per-event ranges; the
// paper observes that E$ references "have significantly greater skid than
// the other memory metrics" and that DTLB misses are precise.
type Skid struct {
	rng *xrand.Rand
}

// NewSkid returns a deterministic skid model.
func NewSkid(seed uint64) *Skid { return &Skid{rng: xrand.New(seed)} }

// Instrs returns the number of instructions the trap for ev skids past
// the triggering instruction. The minimum of 1 means the delivered PC is
// at best the instruction after the trigger — never the trigger itself.
//
// Events raised by long-stalling accesses (E$ misses and their stall
// cycles) skid very little: the pipeline is stalled on the triggering
// load when the counter overflows, so few further instructions retire
// before the trap. E$ references are counted on D$ misses that often hit
// E$ with a short stall, so many instructions retire first — the paper
// observes E$ references "have significantly greater skid than the other
// memory metrics". DTLB misses are precise.
func (s *Skid) Instrs(ev Event) int {
	switch ev {
	case EvDTLBMiss:
		return 1 // precise: next instruction, no intervening retirement
	case EvECRdMiss, EvECStall, EvDCRdMiss:
		return 1 + s.rng.Intn(2) // trap taken while stalled on the access
	case EvECRef:
		return 2 + s.rng.Intn(4) // widest skid
	default:
		return 1 + s.rng.Intn(3)
	}
}
