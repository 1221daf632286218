#include "vecstore/matrix.hpp"

#include <fstream>

#include "util/logging.hpp"
#include "util/mmap_file.hpp"
#include "util/serialize.hpp"

namespace hermes {
namespace vecstore {

namespace {
constexpr char kMatrixMagic[] = "HMAT";
constexpr std::uint32_t kMatrixVersion = 1;
} // namespace

Matrix::Matrix(std::size_t dim) : dim_(dim) {}

Matrix::Matrix(std::size_t rows, std::size_t dim)
    : dim_(dim), data_(rows * dim, 0.f)
{
}

VecView
Matrix::row(std::size_t i) const
{
    HERMES_ASSERT(i < rows(), "matrix row ", i, " out of range ", rows());
    return VecView(data_.data() + i * dim_, dim_);
}

MutVecView
Matrix::row(std::size_t i)
{
    HERMES_ASSERT(i < rows(), "matrix row ", i, " out of range ", rows());
    return MutVecView(data_.data() + i * dim_, dim_);
}

void
Matrix::append(VecView v)
{
    HERMES_ASSERT(v.size() == dim_, "row dim ", v.size(),
                  " does not match matrix dim ", dim_);
    data_.insert(data_.end(), v.begin(), v.end());
}

void
Matrix::appendRows(const float *src, std::size_t n)
{
    data_.insert(data_.end(), src, src + n * dim_);
}

void
Matrix::resizeRows(std::size_t rows)
{
    data_.resize(rows * dim_, 0.f);
}

void
Matrix::reserveRows(std::size_t rows)
{
    data_.reserve(rows * dim_);
}

Matrix
Matrix::gather(const std::vector<std::size_t> &indices) const
{
    Matrix out(dim_);
    out.reserveRows(indices.size());
    for (std::size_t idx : indices)
        out.append(row(idx));
    return out;
}

void
Matrix::save(const std::string &path) const
{
    // Header through the byte codec, then the payload straight from
    // data_: the same bytes as ByteWriter::vec without a second copy
    // of the matrix.
    util::ByteWriter header;
    header.raw(kMatrixMagic, 4);
    header.u32(kMatrixVersion);
    header.u64(dim_);
    header.u64(data_.size());
    std::ofstream out(path, std::ios::binary);
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.buffer().size()));
    out.write(reinterpret_cast<const char *>(data_.data()),
              static_cast<std::streamsize>(memoryBytes()));
    out.close();
    if (!out)
        throw util::FormatError(util::FormatErrorCode::Io,
                                path + ": cannot write matrix");
}

Matrix
Matrix::load(const std::string &path)
{
    util::MmapFile file(path);
    util::ByteReader r(file.data(), file.size(), path);
    if (r.raw(4) != std::string_view(kMatrixMagic, 4))
        r.fail(util::FormatErrorCode::BadMagic,
               "bad archive magic (expected HMAT)");
    const std::uint32_t version = r.u32();
    if (version != kMatrixVersion)
        r.fail(util::FormatErrorCode::BadVersion,
               "archive version " + std::to_string(version) +
                   ", expected " + std::to_string(kMatrixVersion));
    Matrix m(static_cast<std::size_t>(r.u64()));
    m.data_ = r.vec<float>();
    r.expectEnd();
    if (m.dim_ == 0 ? !m.data_.empty() : m.data_.size() % m.dim_ != 0)
        r.fail(util::FormatErrorCode::Corrupt,
               "payload is not a whole number of rows");
    return m;
}

} // namespace vecstore
} // namespace hermes
