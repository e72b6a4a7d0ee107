/**
 * @file
 * Canonical content hashing for value-semantic configuration types.
 *
 * Fnv1a implements 64-bit FNV-1a over an explicit canonical byte
 * encoding, so a hash is a stable function of *content* - not of
 * padding, field address, platform endianness, or floating-point
 * formatting. The DSE result cache keys entries by these digests and
 * replays them across runs, shards, and machines, so the encoding is a
 * contract:
 *
 *  - integers are encoded as 8 little-endian bytes (two's complement
 *    via uint64_t for signed values);
 *  - doubles are encoded as the little-endian IEEE-754 bit pattern,
 *    with -0.0 normalized to +0.0 and every NaN normalized to one
 *    quiet-NaN pattern (bitwise-distinct-but-equal values must not
 *    split cache keys);
 *  - strings are length-prefixed (u64) so concatenated fields cannot
 *    alias ("ab","c" never hashes like "a","bc");
 *  - booleans are one byte, 0 or 1.
 *
 * Changing any of this invalidates every persisted cache; the pinned
 * digest vectors in tests/test_dse.cc exist to make such a change loud.
 */

#ifndef CRYOWIRE_UTIL_HASH_HH
#define CRYOWIRE_UTIL_HASH_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>

namespace cryo
{

/** Streaming 64-bit FNV-1a over the canonical encoding above. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffsetBasis =
        14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    /** Feed one raw byte. */
    Fnv1a &byte(std::uint8_t b)
    {
        state_ ^= b;
        state_ *= kPrime;
        return *this;
    }

    /** Feed @p n raw bytes (no length prefix; see str()). */
    Fnv1a &bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i)
            byte(p[i]);
        return *this;
    }

    /** Feed a u64 as 8 little-endian bytes. */
    Fnv1a &u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }

    /** Feed a signed integer via its two's-complement u64 image. */
    Fnv1a &i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }

    /** Feed a double's canonicalized IEEE-754 bit pattern. */
    Fnv1a &f64(double v)
    {
        if (v == 0.0)
            v = 0.0; // -0.0 == 0.0: collapse both to +0.0
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        if (v != v)
            bits = 0x7ff8000000000000ull; // canonical quiet NaN
        return u64(bits);
    }

    /** Feed a bool as one byte. */
    Fnv1a &b(bool v) { return byte(v ? 1 : 0); }

    /** Feed a length-prefixed string. */
    Fnv1a &str(std::string_view s)
    {
        u64(s.size());
        return bytes(s.data(), s.size());
    }

    std::uint64_t digest() const { return state_; }

  private:
    std::uint64_t state_ = kOffsetBasis;
};

/**
 * Streaming CRC32C (Castagnoli polynomial, reflected) - the result
 * cache's per-record integrity check. Unlike Fnv1a, which fingerprints
 * canonical *content*, this checksums raw *bytes as written*: its job
 * is detecting torn appends and flipped bits in the file, so it must
 * cover exactly what the file holds. Matches the standard CRC-32C
 * (iSCSI, RFC 3720) test vectors; the pinned values in
 * tests/test_dse.cc make any drift loud.
 *
 * bytes() is slicing-by-8: eight table lookups fold eight input bytes
 * into the state at once, and the tail goes byte by byte. Table k
 * advances a byte's contribution past k further zero bytes, so the
 * result equals the bytewise loop for any length and alignment.
 */
class Crc32c
{
  public:
    /** Feed @p n raw bytes. */
    Crc32c &bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        std::uint32_t crc = state_;
        for (; n >= 8; n -= 8, p += 8) {
            const std::uint32_t lo = crc ^ le32(p);
            const std::uint32_t hi = le32(p + 4);
            crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
                  kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
                  kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
                  kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
        }
        for (; n > 0; --n, ++p)
            crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
        state_ = crc;
        return *this;
    }

    /** Feed a string's bytes (no length prefix - raw coverage). */
    Crc32c &str(std::string_view s) { return bytes(s.data(), s.size()); }

    std::uint32_t digest() const { return ~state_; }

    /** One-shot convenience. */
    static std::uint32_t of(std::string_view s)
    {
        Crc32c c;
        c.str(s);
        return c.digest();
    }

  private:
    /** Four bytes as a little-endian word, whatever the host order. */
    static std::uint32_t le32(const std::uint8_t *p)
    {
        return static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24;
    }

    /** kTables[0] is the bytewise table; kTables[k][i] is
     * kTables[k - 1][i] run through one more zero byte. */
    static constexpr std::array<std::array<std::uint32_t, 256>, 8>
        kTables = [] {
            std::array<std::array<std::uint32_t, 256>, 8> t{};
            for (std::uint32_t i = 0; i < 256; ++i) {
                std::uint32_t c = i;
                for (int k = 0; k < 8; ++k)
                    c = (c & 1u) != 0 ? 0x82f63b78u ^ (c >> 1) : c >> 1;
                t[0][i] = c;
            }
            for (std::size_t k = 1; k < 8; ++k)
                for (std::size_t i = 0; i < 256; ++i)
                    t[k][i] = (t[k - 1][i] >> 8) ^
                              t[0][t[k - 1][i] & 0xffu];
            return t;
        }();

    std::uint32_t state_ = 0xffffffffu;
};

/** Digest rendered as 16 lowercase hex digits (zero-padded). */
inline std::string
hashHex(std::uint64_t digest)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

/** CRC32C digest rendered as 8 lowercase hex digits (zero-padded). */
inline std::string
crcHex(std::uint32_t digest)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out(8, '0');
    for (int i = 7; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kHex[digest & 0xf];
        digest >>= 4;
    }
    return out;
}

} // namespace cryo

#endif // CRYOWIRE_UTIL_HASH_HH
