package security

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpj/internal/vm"
)

// TestAddGrantInvalidatesCachedDecisions is the dedicated invalidation
// test for the access-control fast path: a policy-backed domain caches
// a denial, then AddGrant (the Appletviewer's runtime delegation path)
// confers the permission, and the very next check must observe the
// grant — the generation bump must flush the cached decision.
func TestAddGrantInvalidatesCachedDecisions(t *testing.T) {
	pol := MustParsePolicy(`
grant codeBase "file:/apps/-" {
    permission runtime "harmless";
};
`)
	d := pol.DomainFor("tool", NewCodeSource("file:/apps/tool"))
	perm := NewFilePermission("/data/x", "read")

	runOnThread(t, func(th *vm.Thread) {
		th.PushFrame(vm.Frame{Class: "Tool", Domain: d})
		defer th.PopFrame()

		// Prime the caches: repeated denials.
		for i := 0; i < 3; i++ {
			if err := CheckPermission(th, perm); err == nil {
				t.Fatal("ungranted permission allowed before delegation")
			}
		}
		// Runtime delegation.
		pol.AddGrant(&Grant{
			CodeBase: "file:/apps/-",
			Perms:    []Permission{NewFilePermission("/data/-", "read")},
		})
		if err := CheckPermission(th, perm); err != nil {
			t.Fatalf("cached denial survived AddGrant: %v", err)
		}
		// A cached positive must stay positive across further grants.
		pol.AddGrant(&Grant{
			CodeBase: "file:/apps/-",
			Perms:    []Permission{NewRuntimePermission("other")},
		})
		if err := CheckPermission(th, perm); err != nil {
			t.Fatalf("unrelated AddGrant broke a cached grant: %v", err)
		}
	})
}

// TestAddGrantEnablesUserExercise: a later grant of UserPermission to
// the code source must switch the (cached) domain onto the user path.
func TestAddGrantEnablesUserExercise(t *testing.T) {
	pol := MustParsePolicy(`
grant user "alice" {
    permission file "/home/alice/-", "read,write";
};
`)
	d := pol.DomainFor("editor", NewCodeSource("file:/local/editor"))
	perm := NewFilePermission("/home/alice/notes", "read")

	runOnThread(t, func(th *vm.Thread) {
		BindUserPermissions(th, "alice", pol.PermissionsForUser("alice"))
		th.PushFrame(vm.Frame{Class: "Editor", Domain: d})
		defer th.PopFrame()

		if err := CheckPermission(th, perm); err == nil {
			t.Fatal("domain without UserPermission exercised user grants")
		}
		pol.AddGrant(&Grant{CodeBase: "file:/local/-", Perms: []Permission{UserPermission{}}})
		if err := CheckPermission(th, perm); err != nil {
			t.Fatalf("UserPermission delegation not observed: %v", err)
		}
	})
}

// TestDetachedDomainObservesStaticAdd: a domain built directly from a
// collection (no backing policy) must still observe later Adds to that
// collection — the collection's version counter invalidates the
// decision memo.
func TestDetachedDomainObservesStaticAdd(t *testing.T) {
	d := domainWith("app", NewRuntimePermission("x"))
	perm := NewFilePermission("/data/x", "read")
	runOnThread(t, func(th *vm.Thread) {
		th.PushFrame(vm.Frame{Class: "App", Domain: d})
		defer th.PopFrame()
		if CheckGranted(th, perm) {
			t.Fatal("ungranted permission allowed")
		}
		d.Static.Add(NewFilePermission("/data/-", "read"))
		if !CheckGranted(th, perm) {
			t.Fatal("cached denial survived Static.Add")
		}
	})
}

// TestWalkDedupOverflowStaysCorrect: more distinct domains than the
// walk's fixed dedup window must still all be consulted.
func TestWalkDedupOverflowStaysCorrect(t *testing.T) {
	runOnThread(t, func(th *vm.Thread) {
		// maxWalkDedup+2 strong domains, then one weak domain pushed
		// first (outermost), so it is consulted last.
		weak := domainWith("weak")
		th.PushFrame(vm.Frame{Class: "Weak", Domain: weak})
		for i := 0; i < maxWalkDedup+2; i++ {
			d := domainWith(fmt.Sprintf("strong%d", i), NewFilePermission("/data/-", "read"))
			th.PushFrame(vm.Frame{Class: "Strong", Domain: d})
		}
		defer func() {
			for i := 0; i < maxWalkDedup+3; i++ {
				th.PopFrame()
			}
		}()
		if CheckGranted(th, NewFilePermission("/data/x", "read")) {
			t.Fatal("weak outermost domain beyond the dedup window was skipped")
		}
	})
}

// TestCheckPermissionRepeatedDomainDedup: the same domain repeated at
// depth must behave exactly like a single occurrence, for grants and
// denials, with and without the user path.
func TestCheckPermissionRepeatedDomainDedup(t *testing.T) {
	pol := MustParsePolicy(paperPolicy)
	editor := pol.DomainFor("editor", NewCodeSource("file:/local/editor"))
	runOnThread(t, func(th *vm.Thread) {
		BindUserPermissions(th, "alice", pol.PermissionsForUser("alice"))
		for i := 0; i < 40; i++ {
			th.PushFrame(vm.Frame{Class: "Editor", Domain: editor})
		}
		defer func() {
			for i := 0; i < 40; i++ {
				th.PopFrame()
			}
		}()
		if !CheckGranted(th, NewFilePermission("/home/alice/a", "write")) {
			t.Fatal("deep repeated-domain stack denied the user grant")
		}
		if CheckGranted(th, NewFilePermission("/home/bob/b", "read")) {
			t.Fatal("deep repeated-domain stack allowed a foreign file")
		}
	})
}

// TestConcurrentCheckPermissionWithAddGrantRaces is the -race
// concurrency test: many threads hammer CheckPermission on shared
// policy-backed domains while the main goroutine races AddGrant calls.
// After each generation bump is published (synchronized via channel),
// no thread may observe a stale decision: permissions granted before
// the sync point must be allowed, never-granted ones must stay denied.
func TestConcurrentCheckPermissionWithAddGrantRaces(t *testing.T) {
	pol := NewPolicy()
	pol.AddGrant(&Grant{
		CodeBase: "file:/apps/-",
		Perms:    []Permission{NewRuntimePermission("base")},
	})
	d := pol.DomainFor("app", NewCodeSource("file:/apps/app"))

	const workers = 8
	const grantRounds = 64

	v := vm.New(vm.Config{IdlePolicy: vm.StayOnIdle, NoBootThreads: true})
	defer v.Exit(0)

	granted := make(chan int) // announces rounds granted so far
	var wg sync.WaitGroup

	worker := func(th *vm.Thread) {
		defer wg.Done()
		th.PushFrame(vm.Frame{Class: "App", Domain: d})
		baseline := NewRuntimePermission("base")
		never := NewFilePermission("/etc/shadow", "read")
		rounds := 0
		for {
			// Permissions from the policy's initial state must always
			// be granted; never-granted ones always denied — during
			// and after every AddGrant race.
			if !CheckGranted(th, baseline) {
				t.Error("pre-existing grant denied during AddGrant race")
				return
			}
			if CheckGranted(th, never) {
				t.Error("never-granted permission allowed during AddGrant race")
				return
			}
			select {
			case r, ok := <-granted:
				if !ok {
					return
				}
				rounds = r
				// The send happens after AddGrant returned, so the new
				// grant's generation bump is visible: a stale cached
				// denial here is a bug.
				perm := NewRuntimePermission(fmt.Sprintf("round%d", rounds-1))
				if !CheckGranted(th, perm) {
					t.Errorf("stale denial: grant of round %d not visible after sync", rounds-1)
					return
				}
			default:
			}
		}
	}

	for i := 0; i < workers; i++ {
		wg.Add(1)
		if _, err := v.SpawnThread(vm.ThreadSpec{
			Group: v.MainGroup(),
			Name:  fmt.Sprintf("w%d", i),
			Run:   worker,
		}); err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < grantRounds; r++ {
		pol.AddGrant(&Grant{
			CodeBase: "file:/apps/-",
			Perms:    []Permission{NewRuntimePermission(fmt.Sprintf("round%d", r))},
		})
		granted <- r + 1 // happens-after the AddGrant above
	}
	close(granted)
	wg.Wait()
}

// TestQuickSealedIndexMatchesLinearScan: the sealed typed index and
// decision memo must agree with a plain linear scan over the element
// slice for random collections and probes, including repeated probes
// (which exercise the memo) and mutation between probes.
func TestQuickSealedIndexMatchesLinearScan(t *testing.T) {
	reference := func(perms []Permission, q Permission) bool {
		for _, held := range perms {
			if held.Implies(q) {
				return true
			}
		}
		return false
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := NewPermissions()
		for i := 0; i < r.Intn(6); i++ {
			switch r.Intn(4) {
			case 0:
				c.Add(NewFilePermission(genPath(r, true), genActions(r)))
			case 1:
				c.Add(NewSocketPermission("host:"+itoa(r.Intn(100)), "connect"))
			case 2:
				c.Add(NewRuntimePermission(string(rune('a' + r.Intn(3)))))
			case 3:
				c.Add(NewObjectPermission("obj."+string(rune('a'+r.Intn(3))), "lookup"))
			}
		}
		for probe := 0; probe < 12; probe++ {
			var q Permission
			switch r.Intn(3) {
			case 0:
				q = NewFilePermission(genPath(r, false), genActions(r))
			case 1:
				q = NewSocketPermission("host:"+itoa(r.Intn(100)), "connect")
			default:
				q = NewRuntimePermission(string(rune('a' + r.Intn(3))))
			}
			want := reference(c.Elements(), q)
			// Ask twice: the second hit comes from the decision memo.
			if got := c.Implies(q); got != want {
				t.Fatalf("seed %d: sealed Implies(%s) = %v, linear scan = %v", seed, String(q), got, want)
			}
			if got := c.Implies(q); got != want {
				t.Fatalf("seed %d: memoized Implies(%s) = %v, linear scan = %v", seed, String(q), got, want)
			}
			if probe == 6 {
				// Mutate mid-stream: the memo must be discarded.
				c.Add(NewFilePermission(genPath(r, true), genActions(r)))
			}
		}
	}
}

// TestSealedSnapshotConcurrentAddAndImplies shakes the sealed snapshot
// under -race: concurrent Implies, Add and Elements on one collection.
func TestSealedSnapshotConcurrentAddAndImplies(t *testing.T) {
	c := NewPermissions(NewFilePermission("/data/-", "read"))
	probe := NewFilePermission("/data/x", "read")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !c.Implies(probe) {
					t.Error("established grant vanished")
					return
				}
				_ = c.Elements()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		c.Add(NewRuntimePermission(fmt.Sprintf("r%d", i)))
	}
	close(stop)
	wg.Wait()
	if c.Len() != 201 {
		t.Fatalf("len = %d, want 201", c.Len())
	}
}

// TestPolicyMatchCacheStaysCoherent: PermissionsForCode must reflect
// every AddGrant immediately, and the returned collections must be
// independently mutable (the cache shares no owned state).
func TestPolicyMatchCacheStaysCoherent(t *testing.T) {
	pol := NewPolicy()
	cs := NewCodeSource("file:/apps/app")
	pol.AddGrant(&Grant{CodeBase: "file:/apps/-", Perms: []Permission{NewRuntimePermission("a")}})

	p1 := pol.PermissionsForCode(cs)
	p2 := pol.PermissionsForCode(cs) // cache hit
	if !p1.Implies(NewRuntimePermission("a")) || !p2.Implies(NewRuntimePermission("a")) {
		t.Fatal("matched grant missing")
	}
	// Mutating a returned collection must not leak into later calls.
	p2.Add(NewRuntimePermission("leak"))
	if pol.PermissionsForCode(cs).Implies(NewRuntimePermission("leak")) {
		t.Fatal("caller mutation leaked into the policy match cache")
	}
	pol.AddGrant(&Grant{CodeBase: "file:/apps/-", Perms: []Permission{NewRuntimePermission("b")}})
	if !pol.PermissionsForCode(cs).Implies(NewRuntimePermission("b")) {
		t.Fatal("match cache served a stale generation")
	}
	if got := pol.PermissionsForCode(cs).Len(); got != 2 {
		t.Fatalf("perm count = %d, want 2", got)
	}
}

// TestDomainImpliesExported: the exported ProtectionDomain.Implies
// answers the static (code-source) decision with caching.
func TestDomainImpliesExported(t *testing.T) {
	d := domainWith("app", NewFilePermission("/data/-", "read"))
	if !d.Implies(NewFilePermission("/data/x", "read")) {
		t.Fatal("static grant not implied")
	}
	if d.Implies(NewFilePermission("/etc/passwd", "read")) {
		t.Fatal("ungranted permission implied")
	}
}

// TestPermissionKeyCanonical: Key distinguishes type, target and
// actions, canonicalizes action order, and maps nil to "".
func TestPermissionKeyCanonical(t *testing.T) {
	if Key(nil) != "" {
		t.Fatal("Key(nil) != \"\"")
	}
	a := Key(NewFilePermission("/a", "write,read"))
	b := Key(NewFilePermission("/a", "read,write"))
	if a != b {
		t.Fatalf("action order not canonical: %q vs %q", a, b)
	}
	if Key(NewFilePermission("/a", "read")) == Key(NewFilePermission("/a", "write")) {
		t.Fatal("actions not part of the key")
	}
	if Key(NewRuntimePermission("x")) == Key(NewReflectPermission("x")) {
		t.Fatal("type not part of the key")
	}
}
