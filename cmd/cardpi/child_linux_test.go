//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL cmd's process when the test binary
// dies, so a `go test -timeout` panic or a killed test run cannot orphan a
// child `cardpi serve`.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
