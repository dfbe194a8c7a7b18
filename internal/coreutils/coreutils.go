// Package coreutils implements the utility applications of Section 6
// of the paper — ls, cat and friends, the login program of Section
// 5.2, and the terminal-hosting program of Section 6.2 — as installed
// programs for the multi-processing platform.
//
// Everything here is a *local application*: under the default policy
// its code source ("file:/local/<name>") holds UserPermission, so each
// tool exercises exactly the permissions of the user running it.
package coreutils

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpj/internal/core"
	"mpj/internal/shell"
	"mpj/internal/terminal"
)

// InstallAll registers the shell and every utility program on the
// platform.
func InstallAll(p *core.Platform) error {
	progs := []core.Program{
		{Name: "sh", Main: shell.Main, Description: "command shell"},
		{Name: "login", CodeBase: "file:/local/login", Main: loginMain,
			Description: "authenticate and start a shell"},
		{Name: "term", Main: termMain, Description: "attach a terminal and run a program"},
		{Name: "ls", Main: lsMain, Description: "list directory contents"},
		{Name: "cat", Main: catMain, Description: "concatenate files to stdout"},
		{Name: "echo", Main: echoMain, Description: "print arguments"},
		{Name: "wc", Main: wcMain, Description: "count lines, words, bytes"},
		{Name: "head", Main: headMain, Description: "first lines of input"},
		{Name: "grep", Main: grepMain, Description: "filter lines containing a substring"},
		{Name: "yes", Main: yesMain, Description: "emit a string forever"},
		{Name: "sleep", Main: sleepMain, Description: "pause for a duration"},
		{Name: "ps", Main: psMain, Description: "list running applications"},
		{Name: "kill", Main: killMain, Description: "stop an application by id"},
		{Name: "whoami", Main: whoamiMain, Description: "print the running user"},
		{Name: "env", Main: envMain, Description: "print visible properties"},
		{Name: "passwd", Main: passwdMain, Description: "change the current user's password"},
		{Name: "su", CodeBase: "file:/local/su", Main: suMain,
			Description: "switch user and start their shell"},
		{Name: "touch", Main: touchMain, Description: "create an empty file"},
		{Name: "rm", Main: rmMain, Description: "remove files"},
		{Name: "mkdir", Main: mkdirMain, Description: "create directories"},
	}
	for _, prog := range progs {
		if err := p.RegisterProgram(prog); err != nil {
			return err
		}
	}
	return nil
}

// lsMain lists names (one per line) of the given directories (default
// the working directory). With -l it prints mode, owner, size, name.
func lsMain(ctx *core.Context, args []string) int {
	long := false
	var paths []string
	for _, a := range args {
		if a == "-l" {
			long = true
		} else {
			paths = append(paths, a)
		}
	}
	if len(paths) == 0 {
		paths = []string{"."}
	}
	code := 0
	for _, path := range paths {
		infos, err := ctx.ReadDir(path)
		if err != nil {
			// Not a directory? Try stat as a file.
			if info, serr := ctx.Stat(path); serr == nil && !info.IsDir {
				printEntry(ctx, long, info.Name, info.Size, info.Mode.String(), info.Owner, false)
				continue
			}
			ctx.Errorf("ls: %v\n", err)
			code = 1
			continue
		}
		for _, info := range infos {
			printEntry(ctx, long, info.Name, info.Size, info.Mode.String(), info.Owner, info.IsDir)
		}
	}
	return code
}

func printEntry(ctx *core.Context, long bool, name string, size int64, mode, owner string, isDir bool) {
	if !long {
		ctx.Println(name)
		return
	}
	kind := "-"
	if isDir {
		kind = "d"
	}
	ctx.Printf("%s%s %-8s %8d %s\n", kind, mode, owner, size, name)
}

// copyBufSize is the chunk cat moves from stdin to stdout: one page,
// so a bulk stream still crosses a pipe in a few writes per ring.
const copyBufSize = 4096

// copyBufs recycles cat's copy buffers. io.Copy between two streams
// allocates (and zeroes) a fresh 32 KiB buffer per call, which cost
// more than everything else a short pipeline like `echo data | cat`
// does.
var copyBufs = sync.Pool{New: func() any { return new([copyBufSize]byte) }}

// copyStream copies src to dst until EOF through a pooled buffer.
func copyStream(dst io.Writer, src io.Reader) error {
	buf := copyBufs.Get().(*[copyBufSize]byte)
	defer copyBufs.Put(buf)
	_, err := io.CopyBuffer(dst, src, buf[:])
	return err
}

// catMain copies the named files (or stdin when none) to stdout. Like
// its Unix namesake it "only uses the standard streams, and therefore
// also works if not run from a terminal (such as in a pipe)".
func catMain(ctx *core.Context, args []string) int {
	if len(args) == 0 {
		if err := copyStream(ctx.Stdout(), ctx.Stdin()); err != nil {
			ctx.Errorf("cat: %v\n", err)
			return 1
		}
		return 0
	}
	code := 0
	for _, path := range args {
		data, err := ctx.ReadFile(path)
		if err != nil {
			ctx.Errorf("cat: %v\n", err)
			code = 1
			continue
		}
		if _, err := ctx.Stdout().Write(data); err != nil {
			return 1
		}
	}
	return code
}

// echoMain prints its arguments separated by spaces.
func echoMain(ctx *core.Context, args []string) int {
	ctx.Println(strings.Join(args, " "))
	return 0
}

// wcMain counts lines, words and bytes of stdin (or files).
func wcMain(ctx *core.Context, args []string) int {
	count := func(data []byte, label string) {
		lines := 0
		words := 0
		inWord := false
		for _, c := range data {
			if c == '\n' {
				lines++
			}
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				inWord = false
			} else if !inWord {
				inWord = true
				words++
			}
		}
		if label != "" {
			ctx.Printf("%7d %7d %7d %s\n", lines, words, len(data), label)
		} else {
			ctx.Printf("%7d %7d %7d\n", lines, words, len(data))
		}
	}
	if len(args) == 0 {
		data, err := io.ReadAll(ctx.Stdin())
		if err != nil {
			ctx.Errorf("wc: %v\n", err)
			return 1
		}
		count(data, "")
		return 0
	}
	code := 0
	for _, path := range args {
		data, err := ctx.ReadFile(path)
		if err != nil {
			ctx.Errorf("wc: %v\n", err)
			code = 1
			continue
		}
		count(data, path)
	}
	return code
}

// headMain prints the first N lines (default 10) of stdin.
func headMain(ctx *core.Context, args []string) int {
	n := 10
	if len(args) == 2 && args[0] == "-n" {
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 0 {
			ctx.Errorf("head: bad line count %q\n", args[1])
			return 2
		}
		n = v
	}
	seen := 0
	buf := make([]byte, 1)
	var line strings.Builder
	for seen < n {
		_, err := ctx.Stdin().Read(buf)
		if err != nil {
			if line.Len() > 0 {
				ctx.Printf("%s\n", line.String())
			}
			return 0
		}
		if buf[0] == '\n' {
			ctx.Printf("%s\n", line.String())
			line.Reset()
			seen++
			continue
		}
		line.WriteByte(buf[0])
	}
	return 0
}

// grepMain filters stdin lines containing the pattern substring.
func grepMain(ctx *core.Context, args []string) int {
	if len(args) == 0 {
		ctx.Errorf("grep: usage: grep PATTERN\n")
		return 2
	}
	pattern := args[0]
	matched := 1 // exit 1 when nothing matched, like Unix grep
	var line strings.Builder
	buf := make([]byte, 1)
	flush := func() {
		if strings.Contains(line.String(), pattern) {
			ctx.Printf("%s\n", line.String())
			matched = 0
		}
		line.Reset()
	}
	for {
		_, err := ctx.Stdin().Read(buf)
		if err != nil {
			if line.Len() > 0 {
				flush()
			}
			return matched
		}
		if buf[0] == '\n' {
			flush()
			continue
		}
		line.WriteByte(buf[0])
	}
}

// yesMain writes its argument (default "y") forever, until the pipe
// breaks or the application is stopped — the classic pipeline source.
func yesMain(ctx *core.Context, args []string) int {
	word := "y"
	if len(args) > 0 {
		word = strings.Join(args, " ")
	}
	payload := []byte(word + "\n")
	for !ctx.Thread().Stopped() {
		if _, err := ctx.Stdout().Write(payload); err != nil {
			return 0 // downstream closed: normal termination
		}
	}
	return 0
}

// sleepMain pauses for the given number of milliseconds.
func sleepMain(ctx *core.Context, args []string) int {
	if len(args) != 1 {
		ctx.Errorf("sleep: usage: sleep MILLIS\n")
		return 2
	}
	ms, err := strconv.Atoi(args[0])
	if err != nil || ms < 0 {
		ctx.Errorf("sleep: bad duration %q\n", args[0])
		return 2
	}
	select {
	case <-time.After(time.Duration(ms) * time.Millisecond):
	case <-ctx.Thread().StopChan():
	}
	return 0
}

// psMain lists the live applications of the platform.
func psMain(ctx *core.Context, args []string) int {
	apps := ctx.Platform().Applications()
	ctx.Printf("%5s %-10s %-10s %7s\n", "APPID", "USER", "COMMAND", "THREADS")
	for _, app := range apps {
		ctx.Printf("%5d %-10s %-10s %7d\n", app.ID(), app.User().Name, app.Name(), app.Group().ActiveCount())
	}
	return 0
}

// killMain stops an application by id. Two checks apply: like Unix
// kill(1), the target must belong to the calling user (or the caller
// is root) — enforced here — and the Section 5.6 thread-group access
// rule must pass, which it does because the kill program's code source
// is granted RuntimePermission "modifyThreadGroup" by the default
// policy (it is the PROGRAM that holds the privilege, the same pattern
// as login's setUser).
func killMain(ctx *core.Context, args []string) int {
	if len(args) != 1 {
		ctx.Errorf("kill: usage: kill APPID\n")
		return 2
	}
	id, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		ctx.Errorf("kill: bad id %q\n", args[0])
		return 2
	}
	target := ctx.Platform().FindApplication(core.AppID(id))
	if target == nil {
		ctx.Errorf("kill: no such application %d\n", id)
		return 1
	}
	caller := ctx.User().Name
	if caller != "root" && target.User().Name != caller {
		ctx.Errorf("kill: access denied: application %d belongs to %s\n", id, target.User().Name)
		return 1
	}
	if err := ctx.Platform().SystemManager().CheckGroupAccess(ctx.Thread(), target.Group()); err != nil {
		ctx.Errorf("kill: %v\n", err)
		return 1
	}
	target.RequestExit(137)
	return 0
}

// whoamiMain prints the running user's name.
func whoamiMain(ctx *core.Context, args []string) int {
	ctx.Println(ctx.User().Name)
	return 0
}

// envMain prints every property visible to the application.
func envMain(ctx *core.Context, args []string) int {
	for _, k := range ctx.PropertyKeys() {
		v, err := ctx.Property(k)
		if err != nil {
			continue // unreadable shared property: skip
		}
		ctx.Printf("%s=%s\n", k, v)
	}
	return 0
}

// touchMain creates empty files.
func touchMain(ctx *core.Context, args []string) int {
	code := 0
	for _, path := range args {
		if _, err := ctx.Stat(path); err == nil {
			continue
		}
		if err := ctx.WriteFile(path, nil); err != nil {
			ctx.Errorf("touch: %v\n", err)
			code = 1
		}
	}
	return code
}

// rmMain removes files.
func rmMain(ctx *core.Context, args []string) int {
	code := 0
	for _, path := range args {
		if err := ctx.Delete(path); err != nil {
			ctx.Errorf("rm: %v\n", err)
			code = 1
		}
	}
	return code
}

// mkdirMain creates directories.
func mkdirMain(ctx *core.Context, args []string) int {
	code := 0
	for _, path := range args {
		if err := ctx.Mkdir(path); err != nil {
			ctx.Errorf("mkdir: %v\n", err)
			code = 1
		}
	}
	return code
}

// passwdMain changes the current user's password: passwd OLD NEW, or
// interactively through the terminal with echo off.
func passwdMain(ctx *core.Context, args []string) int {
	var oldPass, newPass string
	switch {
	case len(args) == 2:
		oldPass, newPass = args[0], args[1]
	default:
		term, ok := terminalOf(ctx)
		if !ok {
			ctx.Errorf("passwd: usage: passwd OLD NEW (or run from a terminal)\n")
			return 2
		}
		var err error
		if oldPass, err = term.ReadPassword("Old password: "); err != nil {
			return 1
		}
		if newPass, err = term.ReadPassword("New password: "); err != nil {
			return 1
		}
		confirm, err := term.ReadPassword("Retype new password: ")
		if err != nil {
			return 1
		}
		if confirm != newPass {
			ctx.Errorf("passwd: passwords do not match\n")
			return 1
		}
	}
	if err := ctx.ChangePassword(oldPass, newPass); err != nil {
		ctx.Errorf("passwd: %v\n", err)
		return 1
	}
	ctx.Printf("password updated\n")
	return 0
}

// suMain switches to another user (default root) and starts their
// shell. Like login, the privilege to reset the running user belongs
// to su's CODE SOURCE, not to whoever runs it — but unlike login it is
// meant to be run mid-session: su USER [PASSWORD].
func suMain(ctx *core.Context, args []string) int {
	target := "root"
	if len(args) >= 1 {
		target = args[0]
	}
	var pass string
	switch {
	case len(args) >= 2:
		pass = args[1]
	default:
		term, ok := terminalOf(ctx)
		if !ok {
			ctx.Errorf("su: usage: su USER PASSWORD (or run from a terminal)\n")
			return 2
		}
		var err error
		if pass, err = term.ReadPassword("Password: "); err != nil {
			return 1
		}
	}
	u, err := ctx.Authenticate(target, pass)
	if err != nil {
		ctx.Printf("su: authentication failed\n")
		return 1
	}
	if err := ctx.SetUser(u); err != nil {
		ctx.Errorf("su: %v\n", err)
		return 1
	}
	if err := ctx.Chdir(u.Home); err != nil {
		_ = ctx.Chdir("/")
	}
	app, err := ctx.Exec(u.Shell)
	if err != nil {
		ctx.Errorf("su: %v\n", err)
		return 1
	}
	return app.WaitFor()
}

// termMain attaches a Terminal to the application's standard streams,
// publishes it as the "terminal" resource, and runs the given program
// (default: login) connected to it — the independent Java terminal of
// Section 6.2.
func termMain(ctx *core.Context, args []string) int {
	term := terminal.New(ctx.Stdin(), ctx.Stdout())
	ctx.SetResource(shell.TerminalResource, term)
	prog := "login"
	var progArgs []string
	if len(args) > 0 {
		prog = args[0]
		progArgs = args[1:]
	}
	app, err := ctx.Exec(prog, progArgs...)
	if err != nil {
		ctx.Errorf("term: %v\n", err)
		return 1
	}
	return app.WaitFor()
}

// loginMain authenticates a user and starts their shell, as in Section
// 5.2: the login program has (via its code source) the privilege to
// reset its own running user; it does not matter which user runs it.
func loginMain(ctx *core.Context, args []string) int {
	term, _ := terminalOf(ctx)
	const maxAttempts = 3
	for attempt := 0; attempt < maxAttempts; attempt++ {
		name, pass, err := promptCredentials(ctx, term, args)
		if err != nil {
			return 1
		}
		u, err := ctx.Authenticate(name, pass)
		if err != nil {
			ctx.Printf("Login incorrect\n")
			if len(args) > 0 {
				return 1 // non-interactive: single attempt
			}
			continue
		}
		if err := ctx.SetUser(u); err != nil {
			ctx.Errorf("login: %v\n", err)
			return 1
		}
		if err := ctx.Chdir(u.Home); err != nil {
			// Home missing or unreadable: fall back to /.
			_ = ctx.Chdir("/")
		}
		if motd, err := ctx.ReadFile("/etc/motd"); err == nil {
			ctx.Printf("%s", motd)
		}
		app, err := ctx.Exec(u.Shell)
		if err != nil {
			ctx.Errorf("login: %v\n", err)
			return 1
		}
		return app.WaitFor()
	}
	return 1
}

// promptCredentials obtains the login name and password. With args
// ["user", "pass"] it is non-interactive (tests, benchmarks); with a
// terminal it prompts, turning echo off for the password.
func promptCredentials(ctx *core.Context, term *terminal.Terminal, args []string) (name, pass string, err error) {
	if len(args) >= 2 {
		return args[0], args[1], nil
	}
	if term != nil {
		name, err = term.ReadString("login: ")
		if err != nil {
			return "", "", err
		}
		pass, err = term.ReadPassword("Password: ")
		return name, pass, err
	}
	ctx.Printf("login: ")
	name, err = readStreamLine(ctx)
	if err != nil {
		return "", "", err
	}
	ctx.Printf("Password: ")
	pass, err = readStreamLine(ctx)
	return name, pass, err
}

// readStreamLine reads a line from the raw stdin stream.
func readStreamLine(ctx *core.Context) (string, error) {
	var b strings.Builder
	buf := make([]byte, 1)
	for {
		_, err := ctx.Stdin().Read(buf)
		if err != nil {
			if err == io.EOF && b.Len() > 0 {
				return b.String(), nil
			}
			return "", fmt.Errorf("read login input: %w", err)
		}
		if buf[0] == '\n' {
			return b.String(), nil
		}
		b.WriteByte(buf[0])
	}
}

// terminalOf retrieves the terminal resource, if the application has
// one and is allowed to use it.
func terminalOf(ctx *core.Context) (*terminal.Terminal, bool) {
	res, ok := ctx.Resource(shell.TerminalResource)
	if !ok {
		return nil, false
	}
	term, ok := res.(*terminal.Terminal)
	return term, ok
}
