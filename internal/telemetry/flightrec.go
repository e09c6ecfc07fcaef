package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// IncidentSchema identifies the incident file format; bump on
// incompatible changes.
const IncidentSchema = "switchml.incident/v1"

// DefaultTriggers are the fault transitions that auto-dump an
// incident: the §5.6 control-plane events, the health state machine's
// degrade/failback edges, and the warm-standby ladder's re-homing and
// adoption handshakes.
var DefaultTriggers = []EventType{
	EvFailureDetected,
	EvReconfigure,
	EvWorkerCrash,
	EvSwitchRestart,
	EvDegrade,
	EvFailback,
	EvRehome,
	EvAdopt,
}

// FlightConfig tunes a FlightRecorder; the zero value records 4096
// events with the default triggers and no file output.
type FlightConfig struct {
	// Capacity is the event ring size (default 4096).
	Capacity int
	// Dir, when non-empty, receives one uniquely named incident file
	// per dump.
	Dir string
	// FilePrefix prefixes Dir-mode filenames (default "incident-").
	// Processes sharing a directory must use distinct prefixes or
	// their sequence-numbered files overwrite each other.
	FilePrefix string
	// Path, when non-empty, is the exact incident file, overwritten on
	// every dump — the mode scripted experiments use. Overrides Dir.
	Path string
	// Triggers are the event types that auto-dump (default
	// DefaultTriggers). An explicit empty-but-non-nil slice disables
	// auto-dumping; on-demand dumps still work.
	Triggers []EventType
	// Debounce suppresses auto-dumps closer than this to the previous
	// one, measured on the event clock (zero keeps every trigger).
	Debounce time.Duration
	// Registry, when non-nil, embeds pre/post metric snapshots and
	// their delta in each incident.
	Registry *Registry
	// State, when non-nil, is invoked at dump time and embedded as the
	// incident's deep state (per-slot pool occupancy, shard loads). It
	// runs synchronously inside Emit for trigger dumps, so it must not
	// take locks held around trace emission, and it must return a
	// value the file writer can encode after Emit returns.
	State func() any
	// OnDump, when non-nil, observes every file dump attempt. It runs
	// on the writer goroutine, after the file is written.
	OnDump func(path string, err error)
}

// Incident is a self-contained dump of the moments before a fault
// transition: the retained trace events, the metric state before and
// at the trigger with their delta, and a deep-state snapshot.
type Incident struct {
	Schema string `json:"schema"`
	// Reason names the trigger event type or the on-demand cause.
	Reason string `json:"reason"`
	// TS is the trigger's timestamp on the emitting clock.
	TS  int64 `json:"ts"`
	Seq int   `json:"seq"`
	// Trigger is the event that tripped the dump (absent on demand).
	Trigger *EventJSON  `json:"trigger,omitempty"`
	Events  []EventJSON `json:"events"`
	// Overwritten counts ring-evicted events older than Events[0].
	Overwritten uint64 `json:"overwritten,omitempty"`
	// Pre is the metric baseline (at arming or the previous dump),
	// Metrics the state at this dump, Delta their difference.
	Pre     *Snapshot `json:"pre,omitempty"`
	Metrics *Snapshot `json:"metrics,omitempty"`
	Delta   *Snapshot `json:"delta,omitempty"`
	// State is the deep introspection snapshot (per-slot, per-shard).
	State any `json:"state,omitempty"`
}

// FlightRecorder is a Tracer that continuously records the last N
// events and turns fault transitions into incident files. Wire it
// into a Fanout alongside the normal trace consumers; it is safe for
// concurrent use. Incidents are built inline but encoded and written
// off the emitting goroutine, so a dump never stalls the emitter on
// disk I/O; Dumped and Close wait for the queued writes.
type FlightRecorder struct {
	cfg  FlightConfig
	ring *Ring
	trig [256]bool

	mu       sync.Mutex
	pre      Snapshot
	preSet   bool
	seq      int
	lastDump int64
	dumped   uint64
	lastErr  error
	// written is closed once the most recently queued file write has
	// finished. Each write waits for its predecessor's channel, so
	// files land in dump order (the last dump wins in Path mode).
	written chan struct{}
}

// NewFlightRecorder arms a recorder. The metric baseline is taken
// immediately when cfg.Registry is set.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	fr := &FlightRecorder{cfg: cfg, ring: NewRing(cfg.Capacity), written: make(chan struct{})}
	close(fr.written)
	triggers := cfg.Triggers
	if triggers == nil {
		triggers = DefaultTriggers
	}
	for _, t := range triggers {
		fr.trig[t] = true
	}
	if cfg.Registry != nil {
		fr.pre = cfg.Registry.Snapshot()
		fr.preSet = true
	}
	return fr
}

// SetState installs the deep-state hook after construction, for
// components that exist only once the recorder is already wired into
// their tracer.
func (fr *FlightRecorder) SetState(fn func() any) {
	fr.mu.Lock()
	fr.cfg.State = fn
	fr.mu.Unlock()
}

// Emit implements Tracer: record the event, and dump an incident when
// it is a trigger. The incident is built inline (not in a goroutine),
// which keeps single-threaded emitters — the simulator event loop —
// safe to introspect from the State hook; only the file write is
// queued.
func (fr *FlightRecorder) Emit(e Event) {
	fr.ring.Emit(e)
	if !fr.trig[e.Type] {
		return
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.cfg.Debounce > 0 && fr.dumped > 0 && e.TS-fr.lastDump < int64(fr.cfg.Debounce) {
		return
	}
	fr.dump(fr.incidentLocked(e.Type.String(), &e, true))
}

// Incident assembles an on-demand incident without writing a file —
// the /debug/flightrecorder GET path. It does not advance the metric
// baseline, so reading it leaves auto-dump deltas undisturbed.
func (fr *FlightRecorder) Incident(reason string) Incident {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.incidentLocked(reason, nil, false)
}

// Dump writes an on-demand incident file and returns its path once
// it is on disk.
func (fr *FlightRecorder) Dump(reason string) (string, error) {
	fr.mu.Lock()
	inc := fr.incidentLocked(reason, nil, true)
	fr.dump(inc)
	fr.mu.Unlock()
	if _, err := fr.Dumped(); err != nil {
		return "", err
	}
	return fr.path(inc), nil
}

// Dumped waits for every queued incident write, then reports how many
// incidents were dumped and the last write error, if any.
func (fr *FlightRecorder) Dumped() (uint64, error) {
	fr.mu.Lock()
	written := fr.written
	fr.mu.Unlock()
	<-written
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.dumped, fr.lastErr
}

// Close waits for every queued incident write and returns the last
// write error. The recorder holds nothing else, so it stays usable;
// owners call Close before they return so no incident is left
// unwritten.
func (fr *FlightRecorder) Close() error {
	_, err := fr.Dumped()
	return err
}

// Ring exposes the underlying event ring (for trace exports that want
// the same bounded history).
func (fr *FlightRecorder) Ring() *Ring { return fr.ring }

// incidentLocked builds an incident snapshot; fr.mu must be held.
// advance rolls the metric baseline forward so the next incident's
// delta starts here.
func (fr *FlightRecorder) incidentLocked(reason string, trigger *Event, advance bool) Incident {
	events := fr.ring.Events()
	inc := Incident{
		Schema:      IncidentSchema,
		Reason:      reason,
		Seq:         fr.seq,
		Events:      make([]EventJSON, len(events)),
		Overwritten: fr.ring.Overwritten(),
	}
	for i, e := range events {
		inc.Events[i] = e.JSON()
	}
	if trigger != nil {
		tj := trigger.JSON()
		inc.Trigger = &tj
		inc.TS = trigger.TS
	} else if n := len(events); n > 0 {
		inc.TS = events[n-1].TS
	}
	if fr.cfg.Registry != nil {
		cur := fr.cfg.Registry.Snapshot()
		if fr.preSet {
			pre := fr.pre
			delta := cur.Delta(pre)
			inc.Pre, inc.Delta = &pre, &delta
		}
		inc.Metrics = &cur
		if advance {
			// The next incident's "before" is this incident's "at".
			fr.pre, fr.preSet = cur, true
		}
	}
	if fr.cfg.State != nil {
		inc.State = fr.cfg.State()
	}
	return inc
}

// path names the incident file for a built incident.
func (fr *FlightRecorder) path(inc Incident) string {
	if fr.cfg.Path != "" {
		return fr.cfg.Path
	}
	prefix := fr.cfg.FilePrefix
	if prefix == "" {
		prefix = "incident-"
	}
	return filepath.Join(fr.cfg.Dir, fmt.Sprintf("%s%03d-%s.json", prefix, inc.Seq, inc.Reason))
}

// dump counts one incident and, if file output is configured, queues
// its write behind the previous one; fr.mu must be held.
func (fr *FlightRecorder) dump(inc Incident) {
	fr.seq++
	fr.lastDump = inc.TS
	fr.dumped++
	if fr.cfg.Path == "" && fr.cfg.Dir == "" {
		return
	}
	prev, done := fr.written, make(chan struct{})
	fr.written = done
	go fr.write(prev, done, fr.path(inc), inc)
}

// write encodes and writes one incident file once the previous queued
// write has finished, then records its outcome.
func (fr *FlightRecorder) write(prev <-chan struct{}, done chan<- struct{}, path string, inc Incident) {
	defer close(done)
	<-prev
	err := writeIncident(path, inc)
	fr.mu.Lock()
	fr.lastErr = err
	fr.mu.Unlock()
	if fr.cfg.OnDump != nil {
		fr.cfg.OnDump(path, err)
	}
}

func writeIncident(path string, inc Incident) error {
	data, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
