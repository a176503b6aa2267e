"""Coherent optical WDM transmission simulator with adaptive turbo
equalization: RLS channel estimation feeding a sliding-window SISO LMMSE
equalizer iterating with a SISO LDPC decoder."""

from .constellation import (
    Constellation,
    build_constellation,
    extrinsic_llrs,
    soft_stats,
    symbol_priors,
)
from .fec import Interleaver, LdpcCode, decode
from .fiber import FiberParams, amplify, dbp, edc, propagate_link, propagate_span
from .harness import CampaignConfig, load_config, run_campaign, run_trial
from .metrics import (
    MetricsRecord,
    effective_snr,
    gmi_bits_per_2d,
    post_fec_ber,
)
from .sync_dsp import DdpllState, NlmsState, ddpll, nlms_equalize
from .turbo import (
    SlidingWindowConfig,
    lmmse_equalize,
    rls_estimate,
    turbo_loop,
)
from .waveform import (
    DualPolSignal,
    SymbolFrame,
    build_frame,
    matched_filter,
    rrc_shape,
    select_channel,
    wdm_mux,
)

__version__ = "0.1.0"
