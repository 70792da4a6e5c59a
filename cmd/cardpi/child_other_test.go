//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op off Linux, which has no parent-death signal; the
// test's cleanup still kills the child on every test failure.
func dieWithParent(*exec.Cmd) {}
