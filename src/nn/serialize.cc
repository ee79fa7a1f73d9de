#include "nn/serialize.hh"

#include <cinttypes>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/logging.hh"

namespace forms::nn {

namespace {

constexpr const char *kMagic = "forms-model v2";

/** One tensor record of the file, in the order it is written. */
struct Record
{
    const char *tag;   //!< "param" or "buffer"
    std::string name;
    Tensor *value;
};

/** Every parameter, then every buffer (BatchNorm running statistics). */
std::vector<Record>
records(Network &net)
{
    std::vector<Record> out;
    for (auto &p : net.params())
        out.push_back({"param", p.name, p.value});
    for (auto &b : net.buffers())
        out.push_back({"buffer", b.name, b.value});
    return out;
}

} // namespace

std::string
encodeFloat(float v)
{
    return strfmt("%a", static_cast<double>(v));
}

float
parseFloat(const std::string &token, const char *what)
{
    char *endp = nullptr;
    const double v = std::strtod(token.c_str(), &endp);
    if (endp == token.c_str())
        fatal("bad value '%s' in %s", token.c_str(), what);
    return static_cast<float>(v);
}

void
saveParameters(Network &net, std::ostream &os)
{
    os << kMagic << "\n";
    for (const Record &r : records(net)) {
        os << r.tag << " " << r.name << " " << r.value->numel();
        for (int64_t d : r.value->shape())
            os << " " << d;
        os << "\n";
        const float *data = r.value->data();
        for (int64_t i = 0; i < r.value->numel(); ++i) {
            os << encodeFloat(data[i]);
            os << (i + 1 == r.value->numel() ? '\n' : ' ');
        }
    }
    os << "end\n";
    FORMS_ASSERT(os.good(), "stream failure while saving model");
}

void
saveParameters(Network &net, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open '%s' for writing", path.c_str());
    saveParameters(net, os);
}

void
loadParameters(Network &net, std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != kMagic)
        fatal("bad model header (expected '%s')", kMagic);

    const std::vector<Record> expected = records(net);
    size_t next = 0;
    while (std::getline(is, line)) {
        if (line == "end")
            break;
        std::istringstream hdr(line);
        std::string tag, name;
        int64_t numel = 0;
        hdr >> tag >> name >> numel;
        if ((tag != "param" && tag != "buffer") || !hdr)
            fatal("bad record header: '%s'", line.c_str());
        if (next >= expected.size())
            fatal("model file has more records than the network");
        const Record &r = expected[next++];
        if (r.tag != tag || r.name != name) {
            fatal("record order mismatch: file has %s '%s', network "
                  "expects %s '%s'", tag.c_str(), name.c_str(), r.tag,
                  r.name.c_str());
        }
        if (r.value->numel() != numel) {
            fatal("%s '%s' size mismatch: file %" PRId64
                  ", network %" PRId64, tag.c_str(), name.c_str(), numel,
                  r.value->numel());
        }
        Shape shape;
        int64_t d;
        while (hdr >> d)
            shape.push_back(d);
        if (!shape.empty() && shape != r.value->shape())
            fatal("%s '%s' shape mismatch", tag.c_str(), name.c_str());

        float *data = r.value->data();
        std::string tok;
        for (int64_t i = 0; i < numel; ++i) {
            // Hex-float tokens are parsed with strtod (parseFloat):
            // istream's num_get does not reliably accept the %a format.
            if (!(is >> tok))
                fatal("truncated values for %s '%s'", tag.c_str(),
                      name.c_str());
            data[i] = parseFloat(tok, name.c_str());
        }
        // Consume the trailing newline of the value block.
        is.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    if (next != expected.size())
        fatal("model file has fewer records than the network "
              "(%zu of %zu)", next, expected.size());
}

void
loadParameters(Network &net, const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open '%s' for reading", path.c_str());
    loadParameters(net, is);
}

} // namespace forms::nn
