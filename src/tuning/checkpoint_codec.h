// Token-stream codec for tuner checkpoint blobs, plus the checkpoint I/O
// every tuner shares.
//
// The three checkpointing tuners (SMAC, random search, genetic) build their
// blobs from the stanzas below: the same header, `rng` and `left` lines
// open every blob, then each tuner's own state and a closing "end". Two
// requirements shape the format:
//
//   1. Exactness. Resume must be bit-identical for SMAC's deterministic EI
//      path, so doubles are encoded as C99 hexfloats ("%a") which round-trip
//      losslessly — ParamConfig::ToString's "%.12g" would drift in the last
//      ulps and derail the search. Configs are therefore re-encoded here
//      value by value instead of reusing ToString/FromString.
//   2. Robustness. A checkpoint that fails to parse for any reason is
//      treated as absent (the tuner starts fresh), so every Read* helper
//      returns false instead of crashing on truncated or foreign input.
#ifndef SMARTML_TUNING_CHECKPOINT_CODEC_H_
#define SMARTML_TUNING_CHECKPOINT_CODEC_H_

#include <array>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/tuning/objective.h"

namespace smartml {

/// Lossless round-trip encoding of a double (C99 hexfloat; "nan"/"inf" pass
/// through strtod unchanged).
std::string CkptDouble(double v);

/// Parses a CkptDouble token (also accepts plain decimal). False when the
/// token is not a complete number.
bool CkptParseDouble(const std::string& token, double* out);

/// Percent-encodes `s` into a single whitespace-free token ("" becomes the
/// marker "%-", which cannot be produced by the escaper otherwise).
std::string CkptToken(const std::string& s);

/// Inverse of CkptToken. False on malformed escapes.
bool CkptParseToken(const std::string& token, std::string* out);

/// Appends "cfg <n> {d|i|c} <name> <value> ..." for every value in `config`.
void CkptAppendConfig(const ParamConfig& config, std::ostringstream* out);

/// Reads a CkptAppendConfig stanza from `in`. False on any mismatch.
bool CkptReadConfig(std::istringstream* in, ParamConfig* out);

/// Reads one token from `in`. False unless it equals `tag`.
bool CkptExpect(std::istringstream* in, const char* tag);

/// Appends "<header>\nrng <w0> <w1> <w2> <w3>\nleft <n>\n"; `header` names
/// the format and its version ("smac-ckpt 1").
void CkptAppendHeader(const char* header, const Rng& rng, int evaluations_left,
                      std::ostringstream* out);

/// Reads a CkptAppendHeader block whose first line is exactly `header`.
bool CkptReadHeader(std::istringstream* in, const char* header,
                    std::array<uint64_t, 4>* rng_state, int* evaluations_left);

/// Appends "traj <n> <v1> ... <vn>\n".
void CkptAppendTrajectory(const std::vector<double>& trajectory,
                          std::ostringstream* out);

/// Reads a CkptAppendTrajectory stanza.
bool CkptReadTrajectory(std::istringstream* in, std::vector<double>* out);

/// Appends "best <cost> <num_evaluations>\n", then the best config's and
/// the trajectory's stanzas.
void CkptAppendResult(const TunedResult& result, std::ostringstream* out);

/// Reads a CkptAppendResult block into a fresh TunedResult marked resumed.
bool CkptReadResult(std::istringstream* in, TunedResult* out);

/// The blob under options.checkpoint_key; nullopt when checkpointing is
/// off, nothing is stored, or the store reports it unreadable (logged).
std::optional<std::string> CkptGet(const char* tuner,
                                   const TunerOptions& options);

/// Stores serialize() under options.checkpoint_key when checkpointing is
/// on. A failed write is logged and the run goes on unsaved.
void CkptPut(const char* tuner, const TunerOptions& options,
             const std::function<std::string()>& serialize);

}  // namespace smartml

#endif  // SMARTML_TUNING_CHECKPOINT_CODEC_H_
