/**
 * @file
 * Plain-text serialization of network parameters and state buffers
 * (BatchNorm running statistics) — enough for the deployment flow the
 * paper implies: train and compress once, then hand the
 * polarized/quantized model to the accelerator mapper in a later
 * process.
 *
 * Format (line-oriented, locale-independent):
 *   forms-model v2
 *   param <name> <numel> <d0> <d1> ...
 *   <numel> space-separated float values (hex float for exactness)
 *   ...                         (every Network::params() entry)
 *   buffer <name> <numel> <d0> <d1> ...
 *   <numel> values
 *   ...                         (every Network::buffers() entry)
 *   end
 */

#ifndef FORMS_NN_SERIALIZE_HH
#define FORMS_NN_SERIALIZE_HH

#include <iosfwd>
#include <string>

#include "nn/network.hh"

namespace forms::nn {

/** Serialize all parameters and buffers of a network to a stream. */
void saveParameters(Network &net, std::ostream &os);

/** Serialize to a file; fatal() on I/O failure. */
void saveParameters(Network &net, const std::string &path);

/**
 * Load parameters and buffers into a structurally identical network
 * (same layer names, shapes and order). fatal() on mismatch or parse
 * error.
 */
void loadParameters(Network &net, std::istream &is);

/** Load from a file; fatal() on I/O failure. */
void loadParameters(Network &net, const std::string &path);

// Shared scalar encoding of the forms-* file formats (model
// parameters here, calibration tables in compile/calibration.hh):
// hex floats round-trip bit-exactly and are locale-independent.

/** Encode one value as a hex-float token. */
std::string encodeFloat(float v);

/** Parse a hex-float (or decimal) token; fatal() on garbage. */
float parseFloat(const std::string &token, const char *what);

} // namespace forms::nn

#endif // FORMS_NN_SERIALIZE_HH
