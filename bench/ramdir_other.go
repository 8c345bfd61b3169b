//go:build !linux

package main

import "errors"

// ramEnv carries the scratch directory to the re-executed copy.
const ramEnv = "DSTUNE_BENCH_RAMDIR"

// noRAMDirExit is the re-executed copy's exit code when it could not
// mount the tmpfs.
const noRAMDirExit = 97

// runInRAMDir is Linux-only: elsewhere the run uses the plain directory.
func runInRAMDir(string) (int, bool) { return 0, false }

// mountRAMDir is Linux-only.
func mountRAMDir(string) error { return errors.New("no private tmpfs on this platform") }
