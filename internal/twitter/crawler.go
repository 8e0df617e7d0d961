package twitter

import (
	"errors"
	"fmt"
	"time"

	"elites/internal/faults"
	"elites/internal/graph"
)

// crawlMaxRetries bounds per-call retries on transient 503s; backoff is
// exponential on the virtual clock (5s, 10s, 20s, ...) with equal jitter,
// mirroring production crawler etiquette.
const crawlMaxRetries = 6

// crawlRetryBudget caps the cumulative simulated backoff one crawl may pay
// across every retried call. A persistently failing endpoint exhausts the
// budget and fails the crawl with a descriptive error instead of silently
// advancing the virtual clock forever.
const crawlRetryBudget = 45 * time.Minute

// retrier tracks one crawl's retry spending. The jitter stream is seeded
// from a fixed label so identical failure sequences back off identically —
// the crawl stays deterministic, the waits still decorrelate.
type retrier struct {
	jitter *faults.Jitter
	spent  time.Duration
	waits  int
}

func newRetrier() *retrier {
	return &retrier{jitter: faults.NewJitter(1, "twitter/crawl/backoff")}
}

// wait pays one backoff on the virtual clock: equal jitter over the
// exponential base (uniform in [base/2, base]), charged against the crawl's
// cumulative budget. Exhausting the budget returns an error wrapping the
// transient failure that triggered the wait.
func (r *retrier) wait(api *API, attempt int, lastErr error) error {
	d := r.jitter.Equal(faults.Backoff(5*time.Second, 5*time.Second<<crawlMaxRetries, attempt))
	if r.spent+d > crawlRetryBudget {
		return fmt.Errorf("twitter: crawl retry budget exhausted (%v spent over %d waits, budget %v): %w",
			r.spent, r.waits, crawlRetryBudget, lastErr)
	}
	r.spent += d
	r.waits++
	api.Clock().Advance(d)
	return nil
}

// retryFriendIDs wraps api.FriendIDs with transient-error retry.
func retryFriendIDs(api *API, rt *retrier, id, cursor int64) ([]int64, int64, error) {
	for attempt := 0; ; attempt++ {
		page, next, err := api.FriendIDs(id, cursor)
		if err == nil {
			return page, next, nil
		}
		if !errors.Is(err, ErrServiceUnavailable) || attempt >= crawlMaxRetries {
			return nil, 0, err
		}
		if werr := rt.wait(api, attempt, err); werr != nil {
			return nil, 0, werr
		}
	}
}

// retryUsersLookup wraps api.UsersLookup with transient-error retry.
func retryUsersLookup(api *API, rt *retrier, ids []int64) ([]Profile, error) {
	for attempt := 0; ; attempt++ {
		profiles, err := api.UsersLookup(ids)
		if err == nil {
			return profiles, nil
		}
		if !errors.Is(err, ErrServiceUnavailable) || attempt >= crawlMaxRetries {
			return nil, err
		}
		if werr := rt.wait(api, attempt, err); werr != nil {
			return nil, werr
		}
	}
}

// Dataset is the output of the acquisition pipeline: the English verified
// sub-graph with aligned profiles — the exact artifact the paper's analyses
// consume.
type Dataset struct {
	// Graph is the induced English verified follow graph; node i
	// corresponds to Profiles[i].
	Graph *graph.Digraph
	// Profiles holds the English verified profiles.
	Profiles []Profile
	// TotalVerified is the size of the full verified set before the
	// language filter (the paper: 297,776 → 231,246 English).
	TotalVerified int
	// Crawl bookkeeping.
	APICalls        int64
	SimulatedTime   time.Duration
	FriendsThrottle int
	LookupThrottle  int
}

// Crawl runs the paper's §III pipeline against the simulated API:
//
//  1. page through the friend list of '@verified' to enumerate verified ids;
//  2. batch-fetch profiles via users/lookup;
//  3. keep profiles whose language is English;
//  4. page through friends/ids of each English verified user, discarding
//     non-verified targets;
//  5. induce the verified-only directed graph.
//
// The virtual clock pays for every rate window, so the returned
// SimulatedTime reflects what the crawl would have cost in real time.
func Crawl(api *API) (*Dataset, error) {
	start := api.Clock().Now()
	rt := newRetrier() // one backoff budget for the whole crawl

	// Step 1: enumerate verified ids from @verified.
	var verifiedIDs []int64
	cursor := int64(0)
	for {
		page, next, err := retryFriendIDs(api, rt, api.VerifiedBotID(), cursor)
		if err != nil {
			return nil, fmt.Errorf("listing @verified friends: %w", err)
		}
		verifiedIDs = append(verifiedIDs, page...)
		if next == 0 {
			break
		}
		cursor = next
	}
	verifiedSet := make(map[int64]bool, len(verifiedIDs))
	for _, id := range verifiedIDs {
		verifiedSet[id] = true
	}

	// Steps 2–3: profiles in batches of 100, keep English.
	var english []Profile
	for i := 0; i < len(verifiedIDs); i += 100 {
		j := i + 100
		if j > len(verifiedIDs) {
			j = len(verifiedIDs)
		}
		profiles, err := retryUsersLookup(api, rt, verifiedIDs[i:j])
		if err != nil {
			return nil, fmt.Errorf("users lookup: %w", err)
		}
		for _, p := range profiles {
			if p.Lang == "en" {
				english = append(english, p)
			}
		}
	}
	index := make(map[int64]int, len(english))
	for i, p := range english {
		index[p.ID] = i
	}

	// Steps 4–5: friend lists, filtered to the English verified set.
	b := graph.NewBuilder(len(english))
	for i, p := range english {
		cursor := int64(0)
		for {
			page, next, err := retryFriendIDs(api, rt, p.ID, cursor)
			if err != nil {
				return nil, fmt.Errorf("friends of %d: %w", p.ID, err)
			}
			for _, fid := range page {
				if j, ok := index[fid]; ok {
					b.AddEdge(i, j)
				}
			}
			if next == 0 {
				break
			}
			cursor = next
		}
	}
	ft, lt := api.Throttles()
	return &Dataset{
		Graph:           b.Build(),
		Profiles:        english,
		TotalVerified:   len(verifiedIDs),
		APICalls:        api.Calls,
		SimulatedTime:   api.Clock().Now().Sub(start),
		FriendsThrottle: ft,
		LookupThrottle:  lt,
	}, nil
}

// DatasetFromPlatform shortcuts the crawl: it induces the English verified
// sub-graph directly from platform state. The result is identical to
// Crawl's (the crawler tests assert exactly this); analyses use it when the
// acquisition path itself is not under study.
func DatasetFromPlatform(p *Platform) (*Dataset, error) {
	nodes := p.EnglishNodes()
	sub, orig, err := p.Graph().InducedSubgraph(nodes)
	if err != nil {
		return nil, fmt.Errorf("twitter: inducing verified subgraph: %w", err)
	}
	profiles := make([]Profile, len(orig))
	for i, v := range orig {
		profiles[i] = *p.ProfileByNode(v)
	}
	return &Dataset{
		Graph:         sub,
		Profiles:      profiles,
		TotalVerified: p.NumVerified(),
	}, nil
}

// Metric identifies one of the four Figure 1 audience metrics.
type Metric int

// Figure 1 metrics.
const (
	MetricFollowers Metric = iota
	MetricFriends
	MetricListed
	MetricStatuses
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricFollowers:
		return "followers"
	case MetricFriends:
		return "friends"
	case MetricListed:
		return "list memberships"
	case MetricStatuses:
		return "statuses"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// MetricValues extracts the chosen metric across the dataset's profiles.
func (d *Dataset) MetricValues(m Metric) []float64 {
	out := make([]float64, len(d.Profiles))
	for i, p := range d.Profiles {
		switch m {
		case MetricFollowers:
			out[i] = float64(p.Followers)
		case MetricFriends:
			out[i] = float64(p.Friends)
		case MetricListed:
			out[i] = float64(p.Listed)
		case MetricStatuses:
			out[i] = float64(p.Statuses)
		}
	}
	return out
}

// Bios returns all bios in the dataset.
func (d *Dataset) Bios() []string {
	out := make([]string, len(d.Profiles))
	for i, p := range d.Profiles {
		out[i] = p.Bio
	}
	return out
}
