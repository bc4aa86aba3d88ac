package cancel

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestStopFirstCauseWins(t *testing.T) {
	var s Stop
	if s.Err() != nil {
		t.Fatal("fresh Stop should be untriggered")
	}
	first := errors.New("first")
	s.Trigger(first)
	s.Trigger(errors.New("second"))
	if s.Err() != first {
		t.Fatalf("Err() = %v, want first cause", s.Err())
	}
}

func TestStopNilCauseDefaults(t *testing.T) {
	var s Stop
	s.Trigger(nil)
	if s.Err() != ErrStopped {
		t.Fatalf("Err() = %v, want ErrStopped", s.Err())
	}
}

func TestStopConcurrentTrigger(t *testing.T) {
	var s Stop
	causes := make([]error, 16)
	for i := range causes {
		causes[i] = errors.New("cause")
	}
	var wg sync.WaitGroup
	for i := range causes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.Trigger(causes[i])
		}(i)
	}
	wg.Wait()
	got := s.Err()
	found := false
	for _, c := range causes {
		if got == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("Err() = %v, not one of the triggered causes", got)
	}
}

func TestStopCheckPanicsAtPoint(t *testing.T) {
	var s Stop
	chk := s.Check()
	chk.Point() // untriggered: must not panic
	s.Trigger(nil)
	var err error
	func() {
		defer Trap(&err)
		chk.Point()
	}()
	if err != ErrStopped {
		t.Fatalf("trapped %v, want ErrStopped", err)
	}
}

func TestMerge(t *testing.T) {
	if Merge() != nil || Merge(nil, nil) != nil {
		t.Fatal("all-nil merge should be nil")
	}
	var s Stop
	chk := Merge(nil, s.Check(), nil)
	if err := chk(); err != nil {
		t.Fatalf("untriggered merge = %v", err)
	}
	s.Trigger(nil)
	if err := chk(); err != ErrStopped {
		t.Fatalf("triggered merge = %v, want ErrStopped", err)
	}
}

func TestMergeWithContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var s Stop
	chk := Merge(FromContext(ctx), s.Check())
	if err := chk(); err != nil {
		t.Fatalf("live merge = %v", err)
	}
	cancel()
	if err := chk(); !errors.Is(err, context.Canceled) {
		t.Fatalf("merge after ctx cancel = %v, want context.Canceled", err)
	}
}
