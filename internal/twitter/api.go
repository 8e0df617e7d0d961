package twitter

import (
	"errors"
	"sort"
	"time"
)

// API errors.
var (
	ErrBadCursor = errors.New("twitter: bad cursor")
	ErrTooMany   = errors.New("twitter: too many ids in one lookup")
	// ErrServiceUnavailable simulates a transient 503; callers should
	// back off and retry, as the crawler does.
	ErrServiceUnavailable = errors.New("twitter: 503 service unavailable (transient)")
)

// Clock is a virtual clock: rate-limited calls advance it instead of
// sleeping, so a crawl that would take days of wall time simulates in
// milliseconds while still accounting for every rate window.
type Clock struct {
	now time.Time
}

// NewClock starts a virtual clock at the given time.
func NewClock(start time.Time) *Clock { return &Clock{now: start} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// Advance moves the clock forward.
func (c *Clock) Advance(d time.Duration) { c.now = c.now.Add(d) }

// rateWindow models Twitter's fixed 15-minute rate windows.
type rateWindow struct {
	limit     int
	used      int
	windowEnd time.Time
	// Throttles counts how many times a caller had to wait for a window
	// reset.
	Throttles int
}

const windowLength = 15 * time.Minute

// take consumes one call, advancing the clock to the next window when the
// current one is exhausted.
func (w *rateWindow) take(c *Clock) {
	if c.Now().After(w.windowEnd) || c.Now().Equal(w.windowEnd) {
		w.windowEnd = c.Now().Add(windowLength)
		w.used = 0
	}
	if w.used >= w.limit {
		// Block until the window resets.
		c.Advance(w.windowEnd.Sub(c.Now()))
		w.windowEnd = c.Now().Add(windowLength)
		w.used = 0
		w.Throttles++
	}
	w.used++
}

// API is the simulated REST surface: friends/ids with cursor pagination and
// users/lookup batching, each behind its own 15-minute rate window, exactly
// the endpoints the paper's §III crawl exercises.
type API struct {
	p     *Platform
	clock *Clock

	// FriendsIDs is limited to 15 requests / 15 min (the painful one);
	// UsersLookup to 300 / 15 min, mirroring the historical app-auth
	// quotas.
	friendsLimiter *rateWindow
	lookupLimiter  *rateWindow

	// PageSize is ids per friends/ids page (Twitter: 5000).
	PageSize int
	// Calls counts total API calls served.
	Calls int64
	// FailureRate injects transient 503s on that fraction of calls
	// (deterministic in the call counter); 0 disables injection. Failed
	// calls still consume rate-limit budget, as on the real platform.
	FailureRate float64
	// Failures counts injected 503s.
	Failures int64
}

// maybeFail deterministically injects a 503 on a FailureRate fraction of
// calls.
func (a *API) maybeFail() error {
	if a.FailureRate <= 0 {
		return nil
	}
	h := uint64(a.Calls) * 0x9e3779b97f4a7c15
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	if float64(h>>11)/(1<<53) < a.FailureRate {
		a.Failures++
		return ErrServiceUnavailable
	}
	return nil
}

// NewAPI wraps a platform with the rate-limited API, starting the virtual
// clock at the snapshot date.
func NewAPI(p *Platform) *API {
	return &API{
		p:              p,
		clock:          NewClock(SnapshotDate),
		friendsLimiter: &rateWindow{limit: 15},
		lookupLimiter:  &rateWindow{limit: 300},
		PageSize:       5000,
	}
}

// Clock exposes the virtual clock (tests and crawlers read elapsed time).
func (a *API) Clock() *Clock { return a.clock }

// Throttles returns how many rate-window waits each endpoint has incurred.
func (a *API) Throttles() (friends, lookup int) {
	return a.friendsLimiter.Throttles, a.lookupLimiter.Throttles
}

// VerifiedBotID returns the id of the '@verified' account.
func (a *API) VerifiedBotID() int64 { return verifiedBotID }

// FriendIDs returns one page of the friend list (accounts the user follows)
// for the given user id, plus the next cursor (0 when exhausted). The
// '@verified' account follows every verified user. Verified users' friend
// lists interleave their verified friends with deterministic periphery
// (non-verified) ids, which the caller must filter — as the paper's pipeline
// does.
func (a *API) FriendIDs(id int64, cursor int64) ([]int64, int64, error) {
	a.friendsLimiter.take(a.clock)
	a.Calls++
	if err := a.maybeFail(); err != nil {
		return nil, 0, err
	}
	all, err := a.friendList(id)
	if err != nil {
		return nil, 0, err
	}
	if cursor < 0 || cursor > int64(len(all)) {
		return nil, 0, ErrBadCursor
	}
	end := cursor + int64(a.PageSize)
	if end > int64(len(all)) {
		end = int64(len(all))
	}
	page := make([]int64, end-cursor)
	copy(page, all[cursor:end])
	next := end
	if next >= int64(len(all)) {
		next = 0
	}
	return page, next, nil
}

// friendList materializes the full, stable friend list of an account.
func (a *API) friendList(id int64) ([]int64, error) {
	if id == verifiedBotID {
		out := make([]int64, a.p.NumVerified())
		for v := range out {
			out[v] = VerifiedID(v)
		}
		return out, nil
	}
	v, ok := a.p.byID[id]
	if !ok {
		return nil, ErrUnknownUser
	}
	verified := a.p.graph.OutNeighbors(v)
	nPeriph := int(float64(len(verified)) * peripheryFriendFactor)
	out := make([]int64, 0, len(verified)+nPeriph)
	for _, w := range verified {
		out = append(out, VerifiedID(int(w)))
	}
	// Deterministic periphery ids derived from the node index.
	h := uint64(v)*0x9e3779b97f4a7c15 ^ a.p.cfg.Seed
	for i := 0; i < nPeriph; i++ {
		h ^= h >> 29
		h *= 0x94d049bb133111eb
		h ^= h >> 32
		out = append(out, peripheryIDBase+int64(h%1_000_000_000))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// UsersLookup returns profiles for up to 100 ids per call (unknown and
// periphery ids are silently dropped, as the real endpoint drops suspended
// accounts).
func (a *API) UsersLookup(ids []int64) ([]Profile, error) {
	if len(ids) > 100 {
		return nil, ErrTooMany
	}
	a.lookupLimiter.take(a.clock)
	a.Calls++
	if err := a.maybeFail(); err != nil {
		return nil, err
	}
	out := make([]Profile, 0, len(ids))
	for _, id := range ids {
		if v, ok := a.p.byID[id]; ok {
			out = append(out, a.p.profiles[v])
		}
	}
	return out, nil
}
