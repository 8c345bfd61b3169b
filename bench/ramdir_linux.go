package main

import (
	"errors"
	"os"
	"os/exec"
	"syscall"
)

// The daemon fsyncs a journal entry per job and a checkpoint per epoch.
// On a shared disk that latency swamps the program and shifts by a
// quarter from one run to the next, so the daemon workloads would
// measure the disk. The benchmark may write nowhere but its checkout,
// so instead of moving its state to /dev/shm it moves a tmpfs under its
// state: the run re-executes itself in a private mount namespace and
// mounts a tmpfs over its scratch directory. The directory stays where
// it was — inside the checkout — and nothing outside the process tree
// ever sees the mount. Where the kernel refuses (no user namespaces, no
// CAP_SYS_ADMIN) the run carries on in the plain directory and says so.

// ramEnv carries the scratch directory to the re-executed copy.
const ramEnv = "DSTUNE_BENCH_RAMDIR"

// noRAMDirExit is the re-executed copy's exit code when it could not
// mount the tmpfs and so did nothing else.
const noRAMDirExit = 97

// runInRAMDir re-executes this binary with the same arguments in a new
// mount namespace with dir as its tmpfs. ok is false when that is not
// possible here, in which case nothing has run yet.
func runInRAMDir(dir string) (exitCode int, ok bool) {
	exe, err := os.Executable()
	if err != nil {
		return 0, false
	}
	attempts := []*syscall.SysProcAttr{
		// Unprivileged: a user namespace in which we are root, and a
		// mount namespace owned by it.
		{Cloneflags: syscall.CLONE_NEWUSER | syscall.CLONE_NEWNS, Pdeathsig: syscall.SIGKILL,
			UidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getuid(), Size: 1}},
			GidMappings: []syscall.SysProcIDMap{{ContainerID: 0, HostID: os.Getgid(), Size: 1}}},
		// Privileged containers often forbid user namespaces but let
		// root unshare the mount namespace directly.
		{Unshareflags: syscall.CLONE_NEWNS, Pdeathsig: syscall.SIGKILL},
	}
	for _, attr := range attempts {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(), ramEnv+"="+dir)
		cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
		cmd.SysProcAttr = attr
		if err := cmd.Start(); err != nil {
			continue
		}
		err := cmd.Wait()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, true
		case errors.As(err, &exit) && exit.ExitCode() == noRAMDirExit:
			continue
		case errors.As(err, &exit) && exit.ExitCode() >= 0:
			return exit.ExitCode(), true
		default:
			return 1, true
		}
	}
	return 0, false
}

// mountRAMDir mounts a tmpfs over dir in this process's (private) mount
// namespace.
func mountRAMDir(dir string) error {
	return syscall.Mount("tmpfs", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "mode=0755")
}
