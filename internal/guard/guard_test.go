package guard

import (
	"sync"
	"testing"
	"time"
)

func TestDoSerializesAccess(t *testing.T) {
	var m Mutex[map[int]int]
	m.Do(func(v *map[int]int) { *v = make(map[int]int) })
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Do(func(v *map[int]int) { (*v)[i%7]++ })
			}
		}()
	}
	wg.Wait()
	total := 0
	m.Do(func(v *map[int]int) {
		for _, n := range *v {
			total += n
		}
	})
	if total != goroutines*each {
		t.Fatalf("total %d, want %d", total, goroutines*each)
	}
}

func TestDoReleasesOnPanic(t *testing.T) {
	var m Mutex[int]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic inside Do was not propagated")
			}
		}()
		m.Do(func(v *int) {
			*v = 1
			panic("boom")
		})
	}()
	got := 0
	m.Do(func(v *int) { got = *v }) // would deadlock if the lock were kept
	if got != 1 {
		t.Fatalf("value %d after the panicking Do, want 1", got)
	}
}

func TestDoDoesNotAllocate(t *testing.T) {
	var m Mutex[int]
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		m.Do(func(v *int) { *v++; n = *v })
	}); a != 0 {
		t.Fatalf("Do allocated %.1f times per call, want 0", a)
	}
	if n == 0 {
		t.Fatal("Do never ran f")
	}
}

func TestGroupWaitJoinsEveryGo(t *testing.T) {
	var g Group
	const n = 16
	release := make(chan struct{})
	var returned Mutex[int]
	for i := 0; i < n; i++ {
		g.Go(func() {
			<-release
			returned.Do(func(v *int) { *v++ })
		})
	}
	waited := make(chan struct{})
	go func() {
		g.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned while every f was still blocked")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-waited
	got := 0
	returned.Do(func(v *int) { got = *v })
	if got != n {
		t.Fatalf("Wait returned after %d of %d f returned", got, n)
	}
	g.Wait() // a drained Group waits for nothing
}
