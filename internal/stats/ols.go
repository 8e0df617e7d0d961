package stats

import (
	"errors"
	"math"

	"elites/internal/linalg"
	"elites/internal/mathx"
)

// ErrSingular indicates a rank-deficient design matrix.
var ErrSingular = errors.New("stats: singular design matrix")

// OLSResult reports an ordinary least squares fit y = X·β + ε.
type OLSResult struct {
	Coef   []float64 // β̂
	StdErr []float64 // standard errors of β̂
	TStat  []float64 // t statistics
	PValue []float64 // two-sided p-values (t distribution, n−p dof)
	// Residuals are y − X·β̂.
	Residuals []float64
	// Fitted are X·β̂.
	Fitted []float64
	// Sigma2 is the unbiased residual variance RSS/(n−p).
	Sigma2 float64
	// R2 and AdjR2 are the coefficients of determination.
	R2, AdjR2 float64
	// LogLik is the Gaussian log-likelihood at the MLE variance.
	LogLik float64
	// AIC and BIC are the usual information criteria (Gaussian).
	AIC, BIC float64
	// DF is the residual degrees of freedom n − p.
	DF int
	// XtXInv is (XᵀX)⁻¹, needed by callers building Wald tests.
	XtXInv *linalg.Matrix
}

// OLS fits y = X·β by least squares via the normal equations (the designs in
// this library are small and well-conditioned after centering; no QR
// needed). X is n×p with n > p.
func OLS(x *linalg.Matrix, y []float64) (*OLSResult, error) {
	n, p := x.Rows, x.Cols
	if len(y) != n {
		return nil, ErrMismatch
	}
	if n <= p {
		return nil, ErrSingular
	}
	xtx := linalg.TMul(x, x)
	ch, err := linalg.NewCholesky(xtx)
	if err != nil {
		return nil, ErrSingular
	}
	xty := x.TMulVec(y)
	beta := ch.Solve(xty)
	fitted := x.MulVec(beta)
	res := make([]float64, n)
	rss := 0.0
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	tss := 0.0
	for i := range y {
		res[i] = y[i] - fitted[i]
		rss += res[i] * res[i]
		d := y[i] - meanY
		tss += d * d
	}
	df := n - p
	sigma2 := rss / float64(df)
	inv := ch.Inverse()
	stderr := make([]float64, p)
	tstat := make([]float64, p)
	pval := make([]float64, p)
	for j := 0; j < p; j++ {
		se := math.Sqrt(sigma2 * inv.At(j, j))
		stderr[j] = se
		if se > 0 {
			tstat[j] = beta[j] / se
			pval[j] = 2 * mathx.StudentTSF(math.Abs(tstat[j]), float64(df))
		} else {
			pval[j] = 1
		}
	}
	r2 := 0.0
	if tss > 0 {
		r2 = 1 - rss/tss
	}
	adj := 1 - (1-r2)*float64(n-1)/float64(df)
	// Gaussian log-likelihood with MLE variance RSS/n.
	mleVar := rss / float64(n)
	logLik := -0.5 * float64(n) * (math.Log(2*math.Pi*mleVar) + 1)
	k := float64(p) + 1 // +1 for the variance
	return &OLSResult{
		Coef:      beta,
		StdErr:    stderr,
		TStat:     tstat,
		PValue:    pval,
		Residuals: res,
		Fitted:    fitted,
		Sigma2:    sigma2,
		R2:        r2,
		AdjR2:     adj,
		LogLik:    logLik,
		AIC:       -2*logLik + 2*k,
		BIC:       -2*logLik + k*math.Log(float64(n)),
		DF:        df,
		XtXInv:    inv,
	}, nil
}
