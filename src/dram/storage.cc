#include "dram/storage.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace olight
{

const SparseMemory::Block SparseMemory::zeroBlock_{};

SparseMemory::Page &
SparseMemory::page(std::uint64_t num)
{
    Shard &s = shards_[num & (kShards - 1)];
    std::lock_guard<std::mutex> lock(s.mu);
    std::unique_ptr<Page> &p = s.pages[num];
    if (!p)
        p = std::make_unique<Page>(); // value-initialized: zeros
    return *p;
}

const SparseMemory::Page *
SparseMemory::findPage(std::uint64_t num) const
{
    const Shard &s = shards_[num & (kShards - 1)];
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.pages.find(num);
    return it == s.pages.end() ? nullptr : it->second.get();
}

SparseMemory::Block &
SparseMemory::block(std::uint64_t addr)
{
    if (addr % blockBytes != 0)
        olight_panic("unaligned block access: 0x", std::hex, addr);
    return page(addr / pageBytes)[addr % pageBytes / blockBytes];
}

const SparseMemory::Block &
SparseMemory::blockOrZero(std::uint64_t addr) const
{
    const Page *p = findPage(addr / pageBytes);
    return p ? (*p)[addr % pageBytes / blockBytes] : zeroBlock_;
}

const std::uint8_t *
SparseMemory::pageData(std::uint64_t addr) const
{
    const Page *p = findPage(addr / pageBytes);
    return p ? reinterpret_cast<const std::uint8_t *>(p) : nullptr;
}

void
SparseMemory::read(std::uint64_t addr, void *out, std::size_t n) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (n > 0) {
        std::size_t off = addr % pageBytes;
        std::size_t take = std::min<std::size_t>(n, pageBytes - off);
        if (const std::uint8_t *src = pageData(addr))
            std::memcpy(dst, src + off, take);
        else
            std::memset(dst, 0, take);
        dst += take;
        addr += take;
        n -= take;
    }
}

void
SparseMemory::write(std::uint64_t addr, const void *in, std::size_t n)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (n > 0) {
        std::size_t off = addr % pageBytes;
        std::size_t take = std::min<std::size_t>(n, pageBytes - off);
        Page &p = page(addr / pageBytes);
        std::memcpy(reinterpret_cast<std::uint8_t *>(&p) + off, src,
                    take);
        src += take;
        addr += take;
        n -= take;
    }
}

float
SparseMemory::readFloat(std::uint64_t addr) const
{
    float v;
    read(addr, &v, sizeof(v));
    return v;
}

void
SparseMemory::writeFloat(std::uint64_t addr, float v)
{
    write(addr, &v, sizeof(v));
}

std::uint32_t
SparseMemory::readU32(std::uint64_t addr) const
{
    std::uint32_t v;
    read(addr, &v, sizeof(v));
    return v;
}

void
SparseMemory::writeU32(std::uint64_t addr, std::uint32_t v)
{
    write(addr, &v, sizeof(v));
}

std::vector<float>
SparseMemory::readFloats(std::uint64_t addr, std::size_t count) const
{
    std::vector<float> out(count);
    read(addr, out.data(), count * sizeof(float));
    return out;
}

void
SparseMemory::writeFloats(std::uint64_t addr, const std::vector<float> &v)
{
    write(addr, v.data(), v.size() * sizeof(float));
}

std::size_t
SparseMemory::numPages() const
{
    std::size_t n = 0;
    for (const Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        n += s.pages.size();
    }
    return n;
}

void
SparseMemory::clear()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        s.pages.clear();
    }
}

void
SparseMemory::copyFrom(const SparseMemory &other)
{
    for (std::uint32_t i = 0; i < kShards; ++i) {
        auto &dst = shards_[i].pages;
        const auto &src = other.shards_[i].pages;
        dst.reserve(src.size());
        for (const auto &[num, p] : src)
            dst.emplace(num, std::make_unique<Page>(*p));
    }
}

} // namespace olight
