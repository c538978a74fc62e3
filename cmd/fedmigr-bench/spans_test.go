package main

import "testing"

func mk(id int, name string, start, end int64) span {
	return span{ID: id, Name: name, StartNS: start, EndNS: end}
}

func TestNestAssignsInnermostContainer(t *testing.T) {
	spans := []span{
		mk(1, "sched_region", 12, 18), // emitted before its parent ends
		mk(2, "local_epoch", 10, 20),
		mk(3, "round", 0, 100),
		mk(4, "aggregation", 30, 40),
		mk(5, "straddler", 35, 45), // overlaps aggregation without nesting in it
		mk(6, "outside", 150, 160),
	}
	nest(spans)
	want := map[int]int{1: 2, 2: 3, 3: 0, 4: 3, 5: 3, 6: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("%s: parent %d, want %d", s.Name, s.Parent, want[s.ID])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  map[int]int64
	}{
		{
			name:  "leaf",
			spans: []span{mk(1, "a", 0, 10)},
			want:  map[int]int64{1: 10},
		},
		{
			name: "nested chain",
			spans: []span{
				mk(1, "round", 0, 100),
				{ID: 2, Parent: 1, Name: "local_epoch", StartNS: 10, EndNS: 60},
				{ID: 3, Parent: 2, Name: "sched_region", StartNS: 20, EndNS: 50},
			},
			want: map[int]int64{1: 50, 2: 20, 3: 30},
		},
		{
			name: "overlapping children count once",
			spans: []span{
				mk(1, "round", 0, 100),
				{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
				{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},
				{ID: 4, Parent: 1, StartNS: 35, EndNS: 38}, // inside both
			},
			want: map[int]int64{1: 50, 2: 30, 3: 30, 4: 3},
		},
		{
			name: "child clipped to its parent",
			spans: []span{
				mk(1, "round", 10, 50),
				{ID: 2, Parent: 1, StartNS: 0, EndNS: 20},
				{ID: 3, Parent: 1, StartNS: 45, EndNS: 70},
			},
			want: map[int]int64{1: 25, 2: 20, 3: 25},
		},
		{
			name: "children cover the parent",
			spans: []span{
				mk(1, "round", 0, 10),
				{ID: 2, Parent: 1, StartNS: 0, EndNS: 5},
				{ID: 3, Parent: 1, StartNS: 5, EndNS: 10},
			},
			want: map[int]int64{1: 0, 2: 5, 3: 5},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for id, w := range c.want {
			if got[id] != w {
				t.Errorf("%s: self time of span %d = %d, want %d", c.name, id, got[id], w)
			}
		}
	}
}
