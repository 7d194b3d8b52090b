package store

import (
	"errors"
	"fmt"
	"sync"

	"remo/internal/model"
)

// Condition compares an observed value against a trigger threshold.
type Condition int

// Trigger conditions.
const (
	// Above fires when value > threshold.
	Above Condition = iota + 1
	// Below fires when value < threshold.
	Below
)

// String implements fmt.Stringer.
func (c Condition) String() string {
	switch c {
	case Above:
		return ">"
	case Below:
		return "<"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Trigger is a standing threshold watch over collected values — the
// result processor's "triggering warnings" operation from §2.2.
type Trigger struct {
	// Name identifies the trigger in alerts.
	Name string
	// Attr is the watched attribute.
	Attr model.AttrID
	// Node restricts the watch to one node; model.Central (0) watches
	// every node.
	Node model.NodeID
	// Cond and Threshold define the firing predicate.
	Cond      Condition
	Threshold float64
	// Cooldown suppresses repeat alerts from the same pair for the given
	// number of rounds (0 alerts on every matching observation).
	Cooldown int
}

// Alert records one trigger firing.
type Alert struct {
	Trigger string
	Pair    model.Pair
	Round   int
	Value   float64
}

// Errors returned by the processor.
var (
	ErrDuplicateTrigger = errors.New("store: duplicate trigger name")
	ErrBadTrigger       = errors.New("store: invalid trigger")
)

// Processor evaluates triggers over the stream of collected values. It
// is safe for concurrent use.
type Processor struct {
	mu       sync.Mutex
	triggers map[string]Trigger
	lastFire map[string]map[model.Pair]int
	alerts   []Alert
	maxKept  int
	onAlert  func(Alert)
}

// NewProcessor returns an empty result processor retaining up to
// maxAlerts alerts (default 1024 when <= 0).
func NewProcessor(maxAlerts int) *Processor {
	if maxAlerts <= 0 {
		maxAlerts = 1024
	}
	return &Processor{
		triggers: make(map[string]Trigger),
		lastFire: make(map[string]map[model.Pair]int),
		maxKept:  maxAlerts,
	}
}

// SetHandler installs a callback invoked synchronously on every alert.
func (p *Processor) SetHandler(fn func(Alert)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onAlert = fn
}

// AddTrigger registers a trigger.
func (p *Processor) AddTrigger(t Trigger) error {
	if t.Name == "" || (t.Cond != Above && t.Cond != Below) {
		return fmt.Errorf("%w: %+v", ErrBadTrigger, t)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.triggers[t.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTrigger, t.Name)
	}
	p.triggers[t.Name] = t
	if _, restored := p.lastFire[t.Name]; !restored {
		// Keep any re-arm state restored before the trigger was re-added
		// (crash recovery re-registers triggers after RestoreCooldowns).
		p.lastFire[t.Name] = make(map[model.Pair]int)
	}
	return nil
}

// RemoveTrigger deletes a trigger by name (no-op when absent).
func (p *Processor) RemoveTrigger(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.triggers, name)
	delete(p.lastFire, name)
}

// HasTriggers reports whether any trigger is registered: a processor
// without one has nothing to evaluate.
func (p *Processor) HasTriggers() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.triggers) > 0
}

// Observe evaluates every trigger against one collected value. The
// alert handler runs after the processor's lock is released.
func (p *Processor) Observe(pair model.Pair, round int, value float64) {
	var buf [4]Alert
	fired := buf[:0]
	p.mu.Lock()
	for name, t := range p.triggers {
		if t.Attr != pair.Attr {
			continue
		}
		if t.Node != model.Central && t.Node != pair.Node {
			continue
		}
		hit := (t.Cond == Above && value > t.Threshold) ||
			(t.Cond == Below && value < t.Threshold)
		if !hit {
			continue
		}
		if t.Cooldown > 0 {
			if last, seen := p.lastFire[name][pair]; seen && round-last < t.Cooldown {
				continue
			}
		}
		p.lastFire[name][pair] = round
		alert := Alert{Trigger: name, Pair: pair, Round: round, Value: value}
		p.alerts = append(p.alerts, alert)
		if len(p.alerts) > p.maxKept {
			p.alerts = p.alerts[len(p.alerts)-p.maxKept:]
		}
		fired = append(fired, alert)
	}
	handler := p.onAlert
	p.mu.Unlock()
	if handler != nil {
		for _, a := range fired {
			handler(a)
		}
	}
}

// Cooldowns snapshots the trigger re-arm state: for every trigger, the
// last round each pair fired at. The snapshot is deep-copied, so it
// stays valid as the processor keeps observing.
func (p *Processor) Cooldowns() map[string]map[model.Pair]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]map[model.Pair]int, len(p.lastFire))
	for name, pairs := range p.lastFire {
		cp := make(map[model.Pair]int, len(pairs))
		for pr, r := range pairs {
			cp[pr] = r
		}
		out[name] = cp
	}
	return out
}

// RestoreCooldowns reinstates a trigger re-arm snapshot (crash
// recovery): triggers resume suppressing repeat alerts exactly where
// the snapshot left off. Entries for unregistered triggers are kept and
// become live when the trigger is re-added.
func (p *Processor) RestoreCooldowns(state map[string]map[model.Pair]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, pairs := range state {
		m, ok := p.lastFire[name]
		if !ok {
			m = make(map[model.Pair]int, len(pairs))
			p.lastFire[name] = m
		}
		for pr, r := range pairs {
			m[pr] = r
		}
	}
}

// Alerts returns the retained alerts, oldest first.
func (p *Processor) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Alert(nil), p.alerts...)
}

// AlertCount returns the number of retained alerts.
func (p *Processor) AlertCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.alerts)
}
