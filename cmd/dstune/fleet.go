package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dstune"
	"dstune/internal/service"
)

// fleetFile is the JSON layout of a -fleet file: a job spec of shared
// defaults plus one entry per tuned session. Both are service.JobSpec
// (internal/service/spec.go documents every key) — the same spec a
// dstuned job is — and a session is built by the same service.Build, so
// a session means the transfer its spec would mean as a dstune flag
// line or a POST /jobs body. All sessions run in one process under one
// Fleet, each stepping at its own pace, but FleetConfig is fleet-wide:
// epoch, budget, max_transient and testbed are the file's, not a
// session's. Simulated sessions share one fabric (and so contend for
// the source endpoint, as in Figure 11), socket sessions each dial
// their own addr.
//
// Example:
//
//	{
//	  "testbed": "uchicago",
//	  "seed": 1,
//	  "epoch": 30,
//	  "budget": 600,
//	  "sessions": [
//	    {"name": "bulk", "tuner": "nm-tuner"},
//	    {"name": "background", "tuner": "cs-tuner", "two": true}
//	  ]
//	}
type fleetFile struct {
	// JobSpec holds the defaults every session inherits. Seed drives
	// all randomness: the shared fabric takes it, and session i, unless
	// it names its own, takes Seed+i. Tfr and Cmp load the shared
	// fabric (the last session's values win).
	service.JobSpec
	// Sessions are the tuned sessions, each decoded over the defaults.
	Sessions []json.RawMessage `json:"sessions"`
}

// fleetSession is one session of a fleetFile.
type fleetSession struct {
	service.JobSpec
	// Name labels the session; empty defaults to the tuner name.
	Name string `json:"name"`
}

// loadFleet reads a fleet file the way dstuned reads a job: strictly
// (unknown keys, oversized documents and trailing data are errors), and
// validating every session's spec after the shared defaults are merged
// into it.
func loadFleet(path string) (service.JobSpec, []fleetSession, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return service.JobSpec{}, nil, err
	}
	var file fleetFile
	if err := service.DecodeStrict(data, &file); err != nil {
		return service.JobSpec{}, nil, fmt.Errorf("fleet spec %s: %w", path, err)
	}
	if len(file.Sessions) == 0 {
		return service.JobSpec{}, nil, fmt.Errorf("fleet spec %s has no sessions", path)
	}
	shared := file.JobSpec.WithDefaults()
	sessions := make([]fleetSession, len(file.Sessions))
	socket := 0
	for i, raw := range file.Sessions {
		s := fleetSession{JobSpec: shared}
		s.Seed = 0 // inherited below, offset by i, unless the session names one
		if err := service.DecodeStrict(raw, &s); err != nil {
			return shared, nil, fmt.Errorf("fleet spec %s: session %d: %w", path, i, err)
		}
		if s.Seed == 0 {
			s.Seed = shared.Seed + uint64(i)
		}
		if err := s.Validate(); err != nil {
			return shared, nil, fmt.Errorf("fleet spec %s: session %d: %w", path, i, err)
		}
		if s.Epoch != shared.Epoch || s.Budget != shared.Budget || s.MaxTransient != shared.MaxTransient || s.Testbed != shared.Testbed {
			return shared, nil, fmt.Errorf("fleet spec %s: session %d sets epoch, budget, max_transient or testbed: the fleet has one FleetConfig and one fabric, set them for the whole file", path, i)
		}
		if s.Name == "" {
			s.Name = s.Tuner
		}
		if s.Addr != "" {
			socket++
		}
		sessions[i] = s
	}
	if socket != 0 && socket != len(sessions) {
		return shared, nil, fmt.Errorf("fleet spec %s mixes simulated and socket sessions: the fleet's one epoch and budget would be virtual seconds to some sessions and wall seconds to the others", path)
	}
	return shared, sessions, nil
}

// buildFleet loads a fleet spec and builds all its sessions under one
// scheduler. A non-nil observer watches every session (metrics labeled
// by session ID, live /status); a non-empty checkpointPath makes each
// session write its durable state to a per-session file derived from it
// (see sessionCheckpointPath); a non-nil history store warm-starts
// every session and records each session's best epoch under a
// per-session key on a clean end.
func buildFleet(path string, observer *dstune.Observer, checkpointPath string, histStore *dstune.HistoryStore) (*dstune.Fleet, error) {
	shared, specs, err := loadFleet(path)
	if err != nil {
		return nil, err
	}
	// Simulated sessions share one fabric, so they contend for the
	// source endpoint like Figure 11's simultaneous transfers.
	var fabric *dstune.Fabric
	if specs[0].Addr == "" {
		if fabric, err = service.NewFabric(shared); err != nil {
			return nil, err
		}
	}

	var fcfg dstune.FleetConfig
	sessions := make([]dstune.FleetSession, len(specs))
	usedIDs := make(map[string]bool, len(specs))
	for i, s := range specs {
		// Resolve the stable session ID here (the same defaulting and
		// deduplication the Fleet applies) so the checkpoint filename and
		// the history key carry it: "bulk" and "bulk-2" are different
		// files and different keys, and survive renames of other sessions.
		id := s.Name
		for n := 2; usedIDs[id]; n++ {
			id = fmt.Sprintf("%s-%d", s.Name, n)
		}
		usedIDs[id] = true
		door := service.Door{Obs: observer, History: histStore, Fabric: fabric}
		if checkpointPath != "" {
			door.Checkpoint = dstune.NewFileCheckpoint(sessionCheckpointPath(checkpointPath, id))
		}
		built, err := service.Build(s.JobSpec, id, door)
		if err != nil {
			return nil, err
		}
		// loadFleet holds every session to the file's epoch, budget and
		// max_transient, so any session's FleetConfig is the fleet's.
		fcfg, sessions[i] = built.FleetSession()
	}
	// Nothing of a fleet run outlives the process.
	fcfg.PreserveOnCancel = false
	return dstune.NewFleet(fcfg, sessions...), nil
}

// runFleet drives the fleet buildFleet builds, printing each session's
// trace and summary.
func runFleet(path string, observer *dstune.Observer, checkpointPath string, histStore *dstune.HistoryStore) error {
	fleet, err := buildFleet(path, observer, checkpointPath, histStore)
	if err != nil {
		return err
	}
	results, err := fleet.Run(context.Background())
	if err != nil {
		return err
	}
	failed := false
	for _, r := range results {
		fmt.Printf("=== session %s ===\n", r.ID)
		printTrace(r.Traces[0])
		fmt.Printf("bytes moved: %.0f\n\n", r.Bytes)
		if r.Err != nil {
			failed = true
			log.Printf("session %s failed: %v", r.ID, r.Err)
		}
	}
	if failed {
		return fmt.Errorf("one or more fleet sessions failed")
	}
	return nil
}

// sessionCheckpointPath derives a per-session checkpoint filename from
// the shared -checkpoint path by splicing the session ID in before the
// extension: run.ck + "bulk" -> run-bulk.ck (and, beside it, the epoch
// log run-bulk.ck.log). Extensionless paths get a plain suffix: run +
// "bulk" -> run-bulk.
func sessionCheckpointPath(path, id string) string {
	ext := filepath.Ext(path)
	return path[:len(path)-len(ext)] + "-" + id + ext
}
