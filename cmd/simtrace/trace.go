package main

// The recorded-trace format behind -record and -races: one JSON object
// per line. "lockdef" lines name the lock ids, then "mem" and "lock"
// lines carry the interleaved Word-access and lock-event streams in
// occurrence order. A file written by -record replays bit-identically
// through the race auditor because the auditor consumes exactly these
// two streams (check.MemAccess + lock events) and nothing else.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/sim"
)

// traceLine is one record; T selects which fields are meaningful.
type traceLine struct {
	T    string `json:"t"` // "lockdef", "mem", "lock" or "end"
	At   int64  `json:"at"`
	Kind int32  `json:"kind"`
	TID  int32  `json:"tid"`
	// mem fields
	Word  int32   `json:"word"`
	Name  string  `json:"name"`
	Old   uint64  `json:"old"`
	New   uint64  `json:"new"`
	Wrote bool    `json:"wrote"`
	Arg   int32   `json:"arg"`
	Rel   bool    `json:"rel"`
	Watch []int32 `json:"watch,omitempty"`
	// lock / lockdef fields
	Lock int32 `json:"lock"`
}

// recorder buffers both event streams during a run and writes the file
// afterwards (lockdef lines first, then events in order).
type recorder struct {
	lines []traceLine
}

// MemEvent implements sim.MemObserver.
func (r *recorder) MemEvent(ev *sim.MemEvent) {
	l := traceLine{
		T: "mem", At: int64(ev.At), Kind: int32(ev.Kind), TID: ev.TID,
		Word: -1, Old: ev.Old, New: ev.New, Wrote: ev.Wrote, Arg: ev.Arg, Rel: ev.Rel,
	}
	if ev.W != nil {
		l.Word, l.Name = ev.W.ID(), ev.W.Name()
	}
	for _, w := range ev.Watch {
		if w != nil {
			l.Watch = append(l.Watch, w.ID())
		}
	}
	r.lines = append(r.lines, l)
}

// LockEvent implements sim.LockObserver.
func (r *recorder) LockEvent(at sim.Time, kind sim.TraceKind, lock, tid, arg int32) {
	r.lines = append(r.lines, traceLine{
		T: "lock", At: int64(at), Kind: int32(kind), Lock: lock, TID: tid, Arg: arg,
	})
}

// write dumps lock-name definitions, the buffered events, and a final
// "end" record carrying the run's quiesced time — the auditor's
// end-of-run missed-signal scan needs the true horizon, not the last
// event's timestamp (a stranded spinner is only provably stranded once
// the machine has been idle past the stall bound).
func (r *recorder) write(w io.Writer, m *sim.Machine, quiesced sim.Time) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for id := 0; id < m.NumLocks(); id++ {
		def := traceLine{T: "lockdef", Lock: int32(id), Name: m.LockName(int32(id))}
		if err := enc.Encode(def); err != nil {
			return err
		}
	}
	for _, l := range r.lines {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	if err := enc.Encode(traceLine{T: "end", At: int64(quiesced)}); err != nil {
		return err
	}
	return bw.Flush()
}

// replayRaces feeds a recorded trace through a fresh race auditor and
// prints each verdict with both access sites and virtual timestamps.
// It returns the number of races found.
func replayRaces(path string, w io.Writer) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	ra := check.NewRaceAuditor(check.RaceOptions{})
	names := make(map[int32]string)
	ra.SetLockNames(names)

	var mems, lockEvs int
	var last sim.Time
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var l traceLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return 0, fmt.Errorf("%s: bad trace line: %v", path, err)
		}
		if t := sim.Time(l.At); t > last {
			last = t
		}
		switch l.T {
		case "lockdef":
			names[l.Lock] = l.Name
		case "mem":
			mems++
			ra.Apply(check.MemAccess{
				At: sim.Time(l.At), Kind: sim.MemKind(l.Kind), TID: l.TID,
				Word: l.Word, Name: l.Name, Old: l.Old, New: l.New,
				Wrote: l.Wrote, Arg: l.Arg, Rel: l.Rel, Watch: l.Watch,
			})
		case "lock":
			lockEvs++
			ra.LockEvent(sim.Time(l.At), sim.TraceKind(l.Kind), l.Lock, l.TID, l.Arg)
		case "end":
			// quiesced time; already folded into last above.
		default:
			return 0, fmt.Errorf("%s: unknown trace line type %q", path, l.T)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}

	races := ra.Finish(last)
	fmt.Fprintf(w, "replayed %d mem + %d lock events (through t=%d) from %s\n",
		mems, lockEvs, last, path)
	for i, r := range races {
		fmt.Fprintf(w, "race %d: %s\n", i+1, r)
		if r.Other >= 0 {
			fmt.Fprintf(w, "  access pair: thread %d at t=%d  vs  thread %d at t=%d\n",
				r.Thread, r.ThreadAt, r.Other, r.OtherAt)
		} else {
			fmt.Fprintf(w, "  access: thread %d waiting since t=%d, no signaling write ever arrived\n",
				r.Thread, r.ThreadAt)
		}
	}
	if ra.Total > int64(len(races)) {
		fmt.Fprintf(w, "(%d further race(s) beyond the storage cap)\n", ra.Total-int64(len(races)))
	}
	fmt.Fprintf(w, "total: %d race(s)\n", ra.Total)
	return int(ra.Total), nil
}
