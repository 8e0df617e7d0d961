package twitter

import (
	"testing"
	"time"
)

func TestCrawlMatchesDirectInduction(t *testing.T) {
	p := smallPlatform(t, 1500)
	api := NewAPI(p)
	crawled, err := Crawl(api)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	if crawled.Graph.NumNodes() != direct.Graph.NumNodes() {
		t.Fatalf("node count: crawl %d vs direct %d",
			crawled.Graph.NumNodes(), direct.Graph.NumNodes())
	}
	if crawled.Graph.NumEdges() != direct.Graph.NumEdges() {
		t.Fatalf("edge count: crawl %d vs direct %d",
			crawled.Graph.NumEdges(), direct.Graph.NumEdges())
	}
	// Node orderings may differ; compare via profile ids.
	idToDirect := map[int64]int{}
	for i, pr := range direct.Profiles {
		idToDirect[pr.ID] = i
	}
	crawled.Graph.Edges(func(u, v int) bool {
		du, ok1 := idToDirect[crawled.Profiles[u].ID]
		dv, ok2 := idToDirect[crawled.Profiles[v].ID]
		if !ok1 || !ok2 || !direct.Graph.HasEdge(du, dv) {
			t.Fatalf("edge %d->%d from crawl missing in direct graph", u, v)
		}
		return true
	})
	if crawled.TotalVerified != 1500 {
		t.Fatalf("total verified = %d", crawled.TotalVerified)
	}
}

func TestCrawlPaysRateLimits(t *testing.T) {
	p := smallPlatform(t, 1200)
	api := NewAPI(p)
	ds, err := Crawl(api)
	if err != nil {
		t.Fatal(err)
	}
	// ~930 English users × >=1 friends/ids call each at 15/15min →
	// over an hour of simulated time and many throttles.
	if ds.FriendsThrottle == 0 {
		t.Fatal("friends/ids should have throttled")
	}
	if ds.SimulatedTime < time.Hour {
		t.Fatalf("simulated crawl time %v, want > 1h", ds.SimulatedTime)
	}
	if ds.APICalls < int64(len(ds.Profiles)) {
		t.Fatalf("calls = %d, fewer than users", ds.APICalls)
	}
}

func TestAPIPagination(t *testing.T) {
	p := smallPlatform(t, 1000)
	api := NewAPI(p)
	api.PageSize = 100
	var all []int64
	cursor := int64(0)
	pages := 0
	for {
		page, next, err := api.FriendIDs(api.VerifiedBotID(), cursor)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page...)
		pages++
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(all) != 1000 {
		t.Fatalf("paged ids = %d", len(all))
	}
	if pages != 10 {
		t.Fatalf("pages = %d", pages)
	}
	if _, _, err := api.FriendIDs(api.VerifiedBotID(), 99999); err != ErrBadCursor {
		t.Fatal("bad cursor should error")
	}
	if _, _, err := api.FriendIDs(12345, 0); err != ErrUnknownUser {
		t.Fatal("unknown user should error")
	}
}

func TestAPIFriendListsContainPeriphery(t *testing.T) {
	p := smallPlatform(t, 800)
	api := NewAPI(p)
	api.PageSize = 100000
	// Find a node with several friends.
	var node int
	for v := 0; v < p.NumVerified(); v++ {
		if p.Graph().OutDegree(v) >= 10 {
			node = v
			break
		}
	}
	page, _, err := api.FriendIDs(VerifiedID(node), 0)
	if err != nil {
		t.Fatal(err)
	}
	var verified, periphery int
	for _, id := range page {
		if id >= peripheryIDBase {
			periphery++
		} else {
			verified++
		}
	}
	if verified != p.Graph().OutDegree(node) {
		t.Fatalf("verified friends = %d, want %d", verified, p.Graph().OutDegree(node))
	}
	if periphery == 0 {
		t.Fatal("periphery friends missing — language/verified filtering untested")
	}
}

func TestUsersLookupLimits(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	ids := make([]int64, 101)
	if _, err := api.UsersLookup(ids); err != ErrTooMany {
		t.Fatal("oversized lookup should error")
	}
	// Unknown ids silently dropped.
	got, err := api.UsersLookup([]int64{VerifiedID(1), 777, peripheryIDBase + 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != VerifiedID(1) {
		t.Fatalf("lookup = %v", got)
	}
}

func TestRateWindowAdvancesClock(t *testing.T) {
	p := smallPlatform(t, 300)
	api := NewAPI(p)
	start := api.Clock().Now()
	// 16 friends/ids calls: the 16th must wait for the window reset.
	for i := 0; i < 16; i++ {
		if _, _, err := api.FriendIDs(api.VerifiedBotID(), 0); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := api.Clock().Now().Sub(start)
	if elapsed < windowLength {
		t.Fatalf("clock advanced %v, want >= %v", elapsed, windowLength)
	}
	f, _ := api.Throttles()
	if f != 1 {
		t.Fatalf("throttles = %d, want 1", f)
	}
}

func TestMetricValuesAndBios(t *testing.T) {
	p := smallPlatform(t, 400)
	ds, err := DatasetFromPlatform(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricFollowers, MetricFriends, MetricListed, MetricStatuses} {
		vals := ds.MetricValues(m)
		if len(vals) != len(ds.Profiles) {
			t.Fatalf("%v: %d values", m, len(vals))
		}
		if m.String() == "" {
			t.Fatal("metric name empty")
		}
	}
	bios := ds.Bios()
	if len(bios) != len(ds.Profiles) || bios[0] == "" {
		t.Fatal("bios wrong")
	}
}

func TestCategoryString(t *testing.T) {
	if CatJournalist.String() != "journalist" || Category(250).String() == "" {
		t.Fatal("category names")
	}
}
